package snap

import (
	"fmt"
	"reflect"
)

// Counters appends every counter of the stats struct v points to, in field
// declaration order. int and int64 fields are written as I64, uint and
// uint64 fields as U64, so the bytes are exactly those of the equivalent
// hand-written sequence of U64/I64 calls; adding, removing or reordering a
// field changes the encoding as editing that sequence would. Nested structs
// recurse; fields tagged `snap:"-"` are skipped (a component whose own
// section already serializes that sub-struct). Any other field kind panics
// naming Type.Field: a stats struct is counters only, and a field that is
// not one is a programming error the first snapshot must surface.
//
// Counters is for stats records, encoded once per section. Leaf records
// encoded once per slot (instructions, committed records, trace slots)
// stay hand-coded, where a reflective walk is measurably slower.
func (w *Writer) Counters(v any) {
	walkCounters(reflect.ValueOf(v).Elem(), reflect.Value{}, false, func(f, _ reflect.Value) {
		if f.CanInt() {
			w.I64(f.Int())
		} else {
			w.U64(f.Uint())
		}
	})
}

// Counters reads back the counters Writer.Counters wrote into the struct
// v points to. After an error every counter read is zero, like every other
// getter.
func (r *Reader) Counters(v any) {
	walkCounters(reflect.ValueOf(v).Elem(), reflect.Value{}, false, func(f, _ reflect.Value) {
		if f.CanInt() {
			f.SetInt(r.I64())
		} else {
			f.SetUint(r.U64())
		}
	})
}

// AddCounters adds every counter of the stats struct src points to into
// the same counter of dst, which must point to a struct of the same type.
// It visits the fields Counters does and, unlike Counters, the sub-structs
// tagged `snap:"-"` too: the tag moves a sub-struct's encoding into its
// owner's section, but a merged total still sums it. Any field that is not
// an integer counter panics, as in Counters.
func AddCounters(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	if d.Type() != s.Type() {
		panic(fmt.Sprintf("snap: AddCounters: adding a %s into a %s", s.Type(), d.Type()))
	}
	walkCounters(d, s, true, func(d, s reflect.Value) {
		if d.CanInt() {
			d.SetInt(d.Int() + s.Int())
		} else {
			d.SetUint(d.Uint() + s.Uint())
		}
	})
}

// walkCounters calls visit on each counter field of the struct v, in
// declaration order, recursing into nested structs, together with the same
// field of the struct w when w is valid (of v's type). Fields tagged
// `snap:"-"` are skipped unless tagged is set. Any field that is neither an
// integer counter (int, int64, uint, uint64) nor a struct panics.
func walkCounters(v, w reflect.Value, tagged bool, visit func(f, g reflect.Value)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !tagged && sf.Tag.Get("snap") == "-" {
			continue
		}
		var g reflect.Value
		if w.IsValid() {
			g = w.Field(i)
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64:
			visit(f, g)
		case reflect.Struct:
			walkCounters(f, g, tagged, visit)
		default:
			panic(fmt.Sprintf("snap: field %s.%s has kind %s, not an integer counter", t.Name(), sf.Name, f.Kind()))
		}
	}
}
