package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"ctcp/internal/snap"
)

// statsLeaves lists every leaf snap.Walk visits in Stats, in walk order.
func statsLeaves(s *Stats) []snap.Field {
	var leaves []snap.Field
	snap.Walk(reflect.ValueOf(s).Elem(), func(f snap.Field) { leaves = append(leaves, f) })
	return leaves
}

// setWord stores v in the integer leaf f; word reads it back as the
// 64-bit word Counters writes.
func setWord(f snap.Field, v uint64) {
	if f.Value.CanInt() {
		f.Value.SetInt(int64(v))
	} else {
		f.Value.SetUint(v)
	}
}

func word(f snap.Field) uint64 {
	if f.Value.CanInt() {
		return uint64(f.Value.Int())
	}
	return f.Value.Uint()
}

// TestStatsWalk: the walker visits every Stats leaf once under a unique
// dotted path; the untagged ones are exactly the words Counters writes, in
// order, and the tagged ones are exactly the BP, TC and Fill leaves.
func TestStatsWalk(t *testing.T) {
	var s Stats
	leaves := statsLeaves(&s)
	if len(leaves) != 66 {
		t.Errorf("Stats has %d leaves, want 66", len(leaves))
	}
	seen := map[string]bool{}
	var untagged []snap.Field
	for i, f := range leaves {
		p := f.Path()
		if seen[p] {
			t.Errorf("path %q visited twice", p)
		}
		seen[p] = true
		sub, _, nested := strings.Cut(p, ".")
		if tagged := nested && (sub == "BP" || sub == "TC" || sub == "Fill"); f.Tagged != tagged {
			t.Errorf("%s: Tagged = %v, want %v", p, f.Tagged, tagged)
		}
		// Distinct values, so the encoding below pins each word's position.
		setWord(f, uint64(i+1))
		if !f.Tagged {
			untagged = append(untagged, f)
		}
	}
	if len(untagged) != 38 {
		t.Errorf("%d untagged leaves, want 38", len(untagged))
	}
	for _, p := range []string{"Cycles", "FwdInputs", "BP.CondMispredict", "TC.Hits", "Fill.OptionA"} {
		if !seen[p] {
			t.Errorf("no leaf at %q", p)
		}
	}

	w := snap.NewWriter()
	w.Counters(&s)
	pipeTrace := 0
	w.Int(&pipeTrace)
	b, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range untagged {
		var got uint64
		if r.U64(&got); got != word(f) {
			t.Errorf("Counters word for %s = %d, want %d", f.Path(), got, word(f))
		}
	}
	if r.Int(&pipeTrace); pipeTrace != 0 || r.Close() != nil {
		t.Errorf("Counters wrote more than the %d untagged leaves", len(untagged))
	}
}

// TestWalkersDoNotAllocate: the codec and the merge run once per section
// and once per sampled region, so they must cost no allocation; the
// fingerprint runs once per requested simulation and may not cost more
// than its path-string predecessor's 71.
func TestWalkersDoNotAllocate(t *testing.T) {
	const runs = 100
	var s, sum Stats
	for i, f := range statsLeaves(&s) {
		setWord(f, uint64(i))
	}
	w := snap.NewWriterBuffer(make([]byte, 0, (runs+1)*38*8+64))
	if n := testing.AllocsPerRun(runs, func() { w.Counters(&s) }); n != 0 {
		t.Errorf("Writer.Counters: %v allocs per call", n)
	}
	b, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(b)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, func() { r.Counters(&sum) }); n != 0 {
		t.Errorf("Reader.Counters: %v allocs per call", n)
	}
	if n := testing.AllocsPerRun(runs, func() { snap.AddCounters(&sum, &s) }); n != 0 {
		t.Errorf("AddCounters: %v allocs per call", n)
	}
	if n := testing.AllocsPerRun(runs, func() { DefaultConfig().Fingerprint() }); n > 71 {
		t.Errorf("Fingerprint: %v allocs per call, want at most 71", n)
	}
}
