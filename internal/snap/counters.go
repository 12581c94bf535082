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
	walkCounters(reflect.ValueOf(v).Elem(), func(f reflect.Value) {
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
	walkCounters(reflect.ValueOf(v).Elem(), func(f reflect.Value) {
		if f.CanInt() {
			f.SetInt(r.I64())
		} else {
			f.SetUint(r.U64())
		}
	})
}

// walkCounters calls visit on each counter field of the struct v, in
// declaration order, recursing into nested structs.
func walkCounters(v reflect.Value, visit func(reflect.Value)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Tag.Get("snap") == "-" {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64:
			visit(f)
		case reflect.Struct:
			walkCounters(f, visit)
		default:
			panic(fmt.Sprintf("snap: Counters: field %s.%s has kind %s, not an integer counter", t.Name(), sf.Name, f.Kind()))
		}
	}
}
