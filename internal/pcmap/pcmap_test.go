package pcmap

import (
	"testing"

	"ctcp/internal/isa"
)

// base is an arbitrary aligned text address far enough from zero that the
// table can grow toward the front.
const base = 0x4000_0000

// at returns the aligned PC off instruction slots past base (off may be
// negative).
func at(off int64) uint64 { return uint64(int64(base) + off*isa.PCStride) }

// inOverflow reports whether pc is held by the overflow list.
func (t *Map[E]) inOverflow(pc uint64) bool {
	for i := range t.overflow {
		if t.overflow[i].pc == pc {
			return true
		}
	}
	return false
}

// slot is an expected (offset from base, value) pair.
type slot struct {
	off  int64
	want uint64
}

// checkSlots requires every listed offset to have a slot holding its value.
func checkSlots(t *testing.T, m *Map[uint64], slots []slot) {
	t.Helper()
	for _, s := range slots {
		if e := m.Lookup(at(s.off)); e == nil || *e != s.want {
			t.Errorf("slot %d: got %v, want %d", s.off, e, s.want)
		}
	}
}

func TestLookupNeverGrows(t *testing.T) {
	var m Map[uint64]
	if m.Lookup(at(0)) != nil {
		t.Fatal("Lookup on an empty map returned a slot")
	}
	if m.tab != nil || m.overflow != nil {
		t.Fatal("Lookup on an empty map allocated")
	}
	*m.Ensure(at(0)) = 1
	n := len(m.tab)
	if m.Lookup(at(int64(n))) != nil || len(m.tab) != n {
		t.Fatalf("Lookup past the dense span grew the table to %d slots", len(m.tab))
	}
}

func TestGrowBack(t *testing.T) {
	var m Map[uint64]
	*m.Ensure(at(0)) = 10
	*m.Ensure(at(63)) = 11
	if len(m.tab) != 64 {
		t.Fatalf("first touch made %d slots, want 64", len(m.tab))
	}
	*m.Ensure(at(200)) = 12
	if len(m.tab) != 256 || m.base != at(0)/isa.PCStride {
		t.Fatalf("back growth: len %d base %#x, want 256 slots from the first PC", len(m.tab), m.base)
	}
	checkSlots(t, &m, []slot{{0, 10}, {63, 11}, {200, 12}, {100, 0}})
	if len(m.overflow) != 0 {
		t.Errorf("aligned in-span keys reached the overflow list: %v", m.overflow)
	}
}

func TestGrowFront(t *testing.T) {
	var m Map[uint64]
	*m.Ensure(at(0)) = 20
	*m.Ensure(at(10)) = 21
	*m.Ensure(at(-100)) = 22
	if m.base != at(-100)/isa.PCStride || len(m.tab) != 164 {
		t.Fatalf("front growth: len %d base %#x, want an exact 100-slot prepend", len(m.tab), m.base)
	}
	checkSlots(t, &m, []slot{{-100, 22}, {-50, 0}, {0, 20}, {10, 21}})
	if len(m.overflow) != 0 {
		t.Errorf("aligned in-span keys reached the overflow list: %v", m.overflow)
	}
}

func TestMisalignedKeysStayInOverflow(t *testing.T) {
	var m Map[uint64]
	*m.Ensure(at(0)) = 30
	odd := at(5) + 1
	*m.Ensure(odd) = 31
	if !m.inOverflow(odd) {
		t.Fatal("misaligned key took a dense slot")
	}
	// Growth in both directions covers odd's neighbourhood but never adopts
	// it: a misaligned key has no dense slot.
	m.Ensure(at(-64))
	m.Ensure(at(1000))
	if !m.inOverflow(odd) || len(m.overflow) != 1 {
		t.Fatalf("misaligned key left the overflow list after growth: %v", m.overflow)
	}
	if e := m.Lookup(odd); e == nil || *e != 31 {
		t.Fatalf("misaligned key: got %v, want 31", e)
	}
	if e := m.Lookup(at(5)); e == nil || *e != 0 {
		t.Fatalf("aligned neighbour of a misaligned key: got %v, want its own zero slot", e)
	}
	if m.Ensure(odd) != m.Lookup(odd) {
		t.Fatal("Ensure made a second copy of an overflow key")
	}
}

func TestAdoptMovesOverflowIntoDenseSlot(t *testing.T) {
	var m Map[uint64]
	m.Ensure(at(0))
	m.Ensure(at(-1000)) // 1064 slots: doubling no longer lands on 2^20
	far := at(-1000 + maxEntries + 24)
	*m.Ensure(far) = 40
	if !m.inOverflow(far) {
		t.Fatal("key past the dense bound did not overflow")
	}
	// Doubling 1064 slots toward offset 600k reaches 1,089,536 slots, which
	// now covers far: its entry must move into the dense slot, value intact.
	m.Ensure(at(-1000 + 600_000))
	if len(m.tab) <= maxEntries {
		t.Fatalf("dense span %d did not pass the bound; the scenario needs it to", len(m.tab))
	}
	if len(m.overflow) != 0 {
		t.Fatalf("covered key was not adopted: overflow %v", m.overflow)
	}
	e := m.Lookup(far)
	if e == nil || *e != 40 {
		t.Fatalf("adopted key: got %v, want 40", e)
	}
	if e != &m.tab[far/isa.PCStride-m.base] {
		t.Fatal("adopted key is not served from its dense slot")
	}
}

// TestOverflowEntrySurvivesDenseGrowth is the regression for the per-PC
// producer history losing an entry: a key sent to the overflow store and
// later covered by doubling after a prepend (600,064 slots doubling to
// 1,200,128, past the 2^20 bound) was shadowed by a fresh zero dense slot.
func TestOverflowEntrySurvivesDenseGrowth(t *testing.T) {
	var m Map[uint64]
	m.Ensure(at(0))
	m.Ensure(at(-600_000)) // 600,064 slots
	*m.Ensure(at(-600_000 + 1_100_000)) = 42
	m.Ensure(at(-600_000 + 700_000)) // doubles to 1,200,128 slots
	if len(m.tab) != 1_200_128 {
		t.Fatalf("dense span %d, want 1,200,128", len(m.tab))
	}
	if e := m.Lookup(at(-600_000 + 1_100_000)); e == nil || *e != 42 {
		t.Fatalf("entry written before the growth: got %v, want 42", e)
	}
	if e := m.Ensure(at(-600_000 + 1_100_000)); *e != 42 {
		t.Fatalf("Ensure after the growth: got %d, want 42", *e)
	}
}

func TestForEachOrderAndReset(t *testing.T) {
	var m Map[uint64]
	*m.Ensure(at(2)) = 1
	*m.Ensure(at(0)) = 2
	*m.Ensure(at(1) + 2) = 3 // misaligned: overflow
	var pcs []uint64
	var vals []uint64
	m.ForEach(func(pc uint64, e *uint64) {
		if *e != 0 {
			pcs = append(pcs, pc)
			vals = append(vals, *e)
		}
	})
	wantPCs := []uint64{at(0), at(2), at(1) + 2}
	wantVals := []uint64{2, 1, 3}
	for i := range wantPCs {
		if i >= len(pcs) || pcs[i] != wantPCs[i] || vals[i] != wantVals[i] {
			t.Fatalf("ForEach visited %#x = %v, want %#x = %v", pcs, vals, wantPCs, wantVals)
		}
	}
	span := len(m.tab)
	m.Reset()
	// Reset zeroes in place: dense slots stay (absent by the zero-E contract),
	// the misaligned overflow entry is gone.
	if e := m.Lookup(at(0)); e == nil || *e != 0 {
		t.Fatalf("dense slot after Reset = %v, want a kept zero slot", e)
	}
	if m.Lookup(at(1)+2) != nil {
		t.Fatal("Reset left an overflow entry behind")
	}
	if len(m.tab) != span {
		t.Fatalf("Reset changed the dense span from %d to %d slots", span, len(m.tab))
	}
	m.ForEach(func(pc uint64, e *uint64) {
		if *e != 0 {
			t.Errorf("entry %#x = %d survived Reset", pc, *e)
		}
	})
	if allocs := testing.AllocsPerRun(10, m.Reset); allocs != 0 {
		t.Errorf("Reset allocated %.0f times, want 0", allocs)
	}
}
