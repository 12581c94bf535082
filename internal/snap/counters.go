package snap

import (
	"fmt"
	"reflect"
)

// Field is one leaf Walk visits: a field that is not itself a struct. It
// carries the field's index path, not its name, so a visit costs no
// allocation; AppendPath, Path and Name build names only when asked.
type Field struct {
	Value  reflect.Value // settable when the walked struct was reached through a pointer
	Tagged bool          // the field, or a struct field enclosing it, is tagged `snap:"-"`

	root, parent reflect.Type // the walked struct and the one declaring the field
	depth        int
	index        [8]uint16 // field indices from root; deeper nesting panics
}

// Walk calls visit on each non-struct field of the struct v, in declaration
// order, recursing into nested structs. It is the module's one reflective
// walk over struct fields and applies no policy to a field's kind: each
// visitor decides which kinds it accepts.
func Walk(v reflect.Value, visit func(Field)) {
	walk(v, &Field{root: v.Type()}, 0, false, visit)
}

func walk(v reflect.Value, f *Field, d int, tagged bool, visit func(Field)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f.index[d], f.depth, f.parent = uint16(i), d+1, t
		f.Tagged = tagged || t.Field(i).Tag.Get("snap") == "-"
		if f.Value = v.Field(i); f.Value.Kind() == reflect.Struct {
			walk(f.Value, f, d+1, f.Tagged, visit)
		} else {
			visit(*f)
		}
	}
}

// AppendPath appends the field's dotted path from the walked struct, such
// as "Fill.OptionA", to b.
func (f Field) AppendPath(b []byte) []byte {
	t := f.root
	for n, i := range f.index[:f.depth] {
		if n > 0 {
			b = append(b, '.')
		}
		sf := t.Field(int(i))
		b, t = append(b, sf.Name...), sf.Type
	}
	return b
}

// Path returns the field's dotted path from the walked struct.
func (f Field) Path() string { return string(f.AppendPath(nil)) }

// Name returns the field as Type.Field, such as "FillStats.OptionA".
func (f Field) Name() string {
	return f.parent.Name() + "." + f.parent.Field(int(f.index[f.depth-1])).Name
}

// In returns the same field of w, a struct of the walked struct's type.
func (f Field) In(w reflect.Value) reflect.Value {
	for _, i := range f.index[:f.depth] {
		w = w.Field(int(i))
	}
	return w
}

// signed reports whether the counter f is an int or int64 rather than a
// uint or uint64. Any other kind panics naming Type.Field: a stats struct is
// counters only, so any other field is a bug the first use must surface.
func signed(f Field) bool {
	switch f.Value.Kind() {
	case reflect.Int, reflect.Int64:
		return true
	case reflect.Uint, reflect.Uint64:
		return false
	}
	panic(fmt.Sprintf("snap: field %s has kind %s, not an integer counter", f.Name(), f.Value.Kind()))
}

// Counters codes every counter of the stats struct v points to, in field
// declaration order: int and int64 fields as I64, uint and uint64 fields as
// U64, so the bytes are those of the equivalent hand-written sequence of
// calls, and nested structs inline. Fields tagged `snap:"-"` are skipped (a
// component's own section codes that sub-struct); any other kind panics
// naming Type.Field. Leaf records coded once per slot stay hand-coded
// (DESIGN §10).
func (c *Codec) Counters(v any) {
	Walk(reflect.ValueOf(v).Elem(), func(f Field) {
		switch {
		case f.Tagged:
		case signed(f):
			x := f.Value.Int()
			if c.I64(&x); c.dec {
				f.Value.SetInt(x)
			}
		default:
			x := f.Value.Uint()
			if c.U64(&x); c.dec {
				f.Value.SetUint(x)
			}
		}
	})
}

// AddCounters adds every counter of the stats struct src points to into
// the same counter of dst, a struct of the same type. Unlike Counters it
// sums the sub-structs tagged `snap:"-"` too: the tag moves an encoding
// into its owner's section, but a merged total still needs it.
func AddCounters(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	if d.Type() != s.Type() {
		panic(fmt.Sprintf("snap: AddCounters: adding a %s into a %s", s.Type(), d.Type()))
	}
	Walk(d, func(f Field) {
		if signed(f) {
			f.Value.SetInt(f.Value.Int() + f.In(s).Int())
		} else {
			f.Value.SetUint(f.Value.Uint() + f.In(s).Uint())
		}
	})
}
