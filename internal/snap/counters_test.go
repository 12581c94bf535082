package snap

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

type innerCounters struct {
	A uint64
	B int
}

type sampleCounters struct {
	Cycles int64
	Hits   uint64
	N      uint
	Inner  innerCounters
	Own    innerCounters `snap:"-"`
	Last   uint64
}

// withTrace is the shape Stats had while it carried a per-cycle pipe trace.
type withTrace struct {
	Retired uint64
	Trace   []string
}

func TestCounters(t *testing.T) {
	s := sampleCounters{
		Cycles: -3, Hits: 1 << 40, N: 7,
		Inner: innerCounters{A: 11, B: -12},
		Own:   innerCounters{A: 99, B: 99},
		Last:  0xFFFF_FFFF_FFFF_FFFF,
	}

	// The bytes are those of the hand-written sequence, declaration order,
	// nested struct inline, tagged struct absent.
	hand := NewWriter()
	hand.I64(s.Cycles)
	hand.U64(s.Hits)
	hand.U64(uint64(s.N))
	hand.U64(s.Inner.A)
	hand.I64(int64(s.Inner.B))
	hand.U64(s.Last)
	want, err := hand.Finish()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter()
	w.Counters(&s)
	if got, err := w.Finish(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Counters wrote %x (err %v), want %x", got, err, want)
	}

	// Exact round trip; the skipped struct is left untouched.
	r, err := NewReader(want)
	if err != nil {
		t.Fatal(err)
	}
	got := sampleCounters{Own: innerCounters{A: 5}}
	r.Counters(&got)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wantBack := s
	wantBack.Own = innerCounters{A: 5}
	if got != wantBack {
		t.Errorf("round trip = %+v, want %+v", got, wantBack)
	}

	// A truncated stream sets the sticky error and zeroes what it could
	// not read.
	r, err = NewReader(want[:len(want)-4])
	if err != nil {
		t.Fatal(err)
	}
	var short sampleCounters
	r.Counters(&short)
	if r.Err() == nil {
		t.Fatal("truncated counters decoded without error")
	}
	if short.Last != 0 || short.Inner != s.Inner {
		t.Errorf("truncated decode = %+v, want every field but Last", short)
	}

	// A field that is not a counter panics, naming it.
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		NewWriter().Counters(&withTrace{})
		return ""
	}()
	if !strings.Contains(msg, "withTrace.Trace") {
		t.Errorf("Counters on a []string field: panic %q, want one naming withTrace.Trace", msg)
	}
}

// TestAddCounters: the merge sums every counter Counters encodes and, unlike
// Counters, the `snap:"-"` sub-structs too.
func TestAddCounters(t *testing.T) {
	dst := sampleCounters{Cycles: 10, Hits: 1, N: 2, Inner: innerCounters{A: 3, B: -4}, Own: innerCounters{A: 5, B: 6}, Last: 7}
	src := sampleCounters{Cycles: -1, Hits: 10, N: 20, Inner: innerCounters{A: 30, B: 40}, Own: innerCounters{A: 50, B: -60}, Last: 70}
	AddCounters(&dst, &src)
	want := sampleCounters{Cycles: 9, Hits: 11, N: 22, Inner: innerCounters{A: 33, B: 36}, Own: innerCounters{A: 55, B: -54}, Last: 77}
	if dst != want {
		t.Errorf("AddCounters = %+v, want %+v", dst, want)
	}
}

// withInt32 has counters of a kind the walker does not accept, one of them
// in a sub-struct only the merge visits.
type withInt32 struct {
	Retired uint64
	Own     narrowCounters `snap:"-"`
	Narrow  int32
}

type narrowCounters struct {
	Small int32
}

// TestCountersRejectInt32: an int32 counter panics, naming its field, in the
// encoder, the decoder and the merge alike; none of them skips it silently.
func TestCountersRejectInt32(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	enc := NewWriter()
	enc.U64(0)
	enc.U64(0)
	b, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, field string
		f           func()
	}{
		{"Writer.Counters", "withInt32.Narrow", func() { NewWriter().Counters(&withInt32{}) }},
		{"Reader.Counters", "withInt32.Narrow", func() { r.Counters(&withInt32{}) }},
		// The merge reaches the tagged sub-struct first.
		{"AddCounters", "narrowCounters.Small", func() { AddCounters(&withInt32{}, &withInt32{}) }},
	} {
		if msg := panicOf(c.f); !strings.Contains(msg, c.field) || !strings.Contains(msg, "int32") {
			t.Errorf("%s on an int32 counter: panic %q, want one naming %s as int32", c.name, msg, c.field)
		}
	}
}
