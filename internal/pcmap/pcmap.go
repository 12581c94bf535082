// Package pcmap is the simulator's one PC-indexed table: a map from static
// instruction addresses to entries of type E, stored in a dense array indexed
// by PC/isa.PCStride. Program text is contiguous, so after the first pass
// over the working set every lookup is a single bounds-checked index with no
// hashing and no allocation. The pipeline (per-PC producer history) and the
// fill unit (chain designations, migration history) each keep one per
// retired or built instruction, which puts these lookups on the
// simulator's hot path.
//
// Presence is the caller's concern: dense slots exist for every covered
// address and the zero E means "absent", so E must carry its own presence
// bit (or an equivalent sentinel, such as a zero PC).
//
// Misaligned or far-flung addresses fall back to a small linear overflow
// list. Whenever dense growth newly covers an overflow address the entry
// migrates into its dense slot (adopt), so exactly one copy of each key
// exists at any time and lookups never need to consult both.
package pcmap

import "ctcp/internal/isa"

// maxEntries bounds the dense span of a Map (2^20 instruction slots = 4 MB of
// program text at the architectural stride) so a hostile PC stream cannot
// make the simulator allocate unbounded memory.
const maxEntries = 1 << 20

// Map maps static instruction addresses to entries of type E. The zero Map
// is empty and ready to use.
type Map[E any] struct {
	base     uint64 // PC/PCStride of tab[0]; valid once tab is non-nil
	tab      []E
	overflow []overflowEntry[E]
}

// overflowEntry is one entry of the fallback list.
type overflowEntry[E any] struct {
	pc uint64
	e  E
}

// Lookup returns the entry for pc, or nil when no slot covers pc. It never
// grows the table.
//
// The dense check is one compare: pc/PCStride - base wraps past every
// dense offset when pc lies below base, and a nil table has length zero.
//
//ctcp:inline
func (t *Map[E]) Lookup(pc uint64) *E {
	if off := pc/isa.PCStride - t.base; pc%isa.PCStride == 0 && off < uint64(len(t.tab)) {
		return &t.tab[off]
	}
	return t.lookupOverflow(pc)
}

// lookupOverflow is Lookup for a pc outside the dense span.
func (t *Map[E]) lookupOverflow(pc uint64) *E {
	for i := range t.overflow {
		if t.overflow[i].pc == pc {
			return &t.overflow[i].e
		}
	}
	return nil
}

// Ensure returns the entry for pc, creating its slot on first touch. Slot
// creation allocates, but growth doubles, so the work amortizes to zero per
// steady-state lookup. It takes Lookup's dense check, but stays out of line:
// a generic method's call to grow costs 63 of the inliner's 80 nodes.
func (t *Map[E]) Ensure(pc uint64) *E {
	if off := pc/isa.PCStride - t.base; pc%isa.PCStride == 0 && off < uint64(len(t.tab)) {
		return &t.tab[off]
	}
	return t.grow(pc)
}

// grow extends the dense table to cover pc (doubling toward the back,
// exact-prepending toward the front) or falls back to the overflow list when
// the address is misaligned or the span would exceed maxEntries.
func (t *Map[E]) grow(pc uint64) *E {
	idx := pc / isa.PCStride
	if pc != idx*isa.PCStride {
		return t.slow(pc)
	}
	if t.tab == nil {
		t.base = idx
		t.tab = make([]E, 64)
	}
	if idx < t.base {
		front := t.base - idx
		if front+uint64(len(t.tab)) > maxEntries {
			return t.slow(pc)
		}
		nt := make([]E, front+uint64(len(t.tab)))
		copy(nt[front:], t.tab)
		t.tab, t.base = nt, idx
		t.adopt()
	}
	off := idx - t.base
	if off >= uint64(len(t.tab)) {
		if off >= maxEntries {
			return t.slow(pc)
		}
		n := uint64(len(t.tab))
		for n <= off {
			n *= 2
		}
		nt := make([]E, n)
		copy(nt, t.tab)
		t.tab = nt
		t.adopt()
	}
	return &t.tab[off]
}

// slow appends to (or finds in) the overflow list; only misaligned or
// pathologically scattered addresses land here, so linear search is fine.
func (t *Map[E]) slow(pc uint64) *E {
	for i := range t.overflow {
		if t.overflow[i].pc == pc {
			return &t.overflow[i].e
		}
	}
	t.overflow = append(t.overflow, overflowEntry[E]{pc: pc})
	return &t.overflow[len(t.overflow)-1].e
}

// adopt migrates overflow entries that the just-grown dense span now covers
// into their dense slots, preserving the one-copy-per-key invariant.
func (t *Map[E]) adopt() {
	keep := t.overflow[:0]
	for i := range t.overflow {
		pc := t.overflow[i].pc
		idx := pc / isa.PCStride
		if pc == idx*isa.PCStride && idx >= t.base && idx-t.base < uint64(len(t.tab)) {
			t.tab[idx-t.base] = t.overflow[i].e
			continue
		}
		keep = append(keep, t.overflow[i])
	}
	t.overflow = keep
}

// ForEach visits every slot (present or not): dense slots in ascending PC
// order, then overflow entries in insertion order. Snapshot-path only;
// callers filter on their presence bit and sort as needed.
func (t *Map[E]) ForEach(fn func(pc uint64, e *E)) {
	for i := range t.tab {
		fn((t.base+uint64(i))*isa.PCStride, &t.tab[i])
	}
	for i := range t.overflow {
		fn(t.overflow[i].pc, &t.overflow[i].e)
	}
}

// Reset empties the map in place: every dense slot is zeroed, which by the
// package contract makes it absent, and the overflow list is truncated. The
// dense span and both backing arrays are kept, so a map reused for the same
// program text never grows again.
func (t *Map[E]) Reset() {
	clear(t.tab)
	clear(t.overflow)
	t.overflow = t.overflow[:0]
}
