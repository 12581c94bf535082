package pipeline

// Struct-of-arrays inflight store. The cycle model used to chase *inflight
// pointers through prod/critProd/prevStore links and recompute readiness()
// per reservation-station entry per cycle; the store here keeps the same
// per-instruction state in dense parallel slices indexed by a compact id, so
// the scheduler's inner loop walks a few cache lines and a bitmask instead
// of a scattered linked structure.
//
// Identity. An infID packs a uint32 slot index with a uint32 generation
// (gen<<32 | idx). Slot 0's zero value is never a valid id because
// generations start at 1, so infID(0) doubles as the nil reference. Slots
// are recycled through the same freeAfter/graveyard discipline the pooled
// records used; recycling bumps the slot's generation, so any reference
// that illegally outlives its record fails the generation check loudly
// (*core.InvariantError, recovered into *SimError at the run boundary)
// instead of silently reading a younger instruction's state.
//
// Wakeup. Readiness is no longer recomputed per scan: an entry entering a
// reservation station registers with each still-unissued producer (an
// intrusive list threaded through the store, one node per (consumer, source)
// pair) and, for loads, with the store-disambiguation watermark ring. When
// the last dependency resolves, the entry's ready cycle — identical to what
// the old readiness() would have computed at issue time, because every term
// is fixed once the producers have issued — is computed once and the entry's
// bit is set in its cluster's ready mask. Issue scans the mask with
// bits.TrailingZeros64 in age order (mask bit order == age order within a
// cluster) and re-reads the scanned word after every issue so a store
// issuing earlier in the scan can unblock a younger load in the same cycle,
// exactly as the per-entry recompute allowed.

import (
	"fmt"
	"slices"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/trace"
)

// infID is a generation-checked reference to an inflight store slot.
// 0 is the nil reference (generations start at 1).
type infID uint64

const noID infID = 0

// flag bits of infStore.flags.
const (
	fFromTC uint16 = 1 << iota
	fInRS
	fIssued
	fRetired
	fIsLoad
	fIsStore
	fMispredict
	fCritFwd
	// fResolved marks an RS entry whose dependencies are all known: its
	// readyAt/critSrc fields are final and its ready-mask bit is set. The
	// issue scan skips it until readyAt arrives.
	fResolved
)

// infStore holds every in-flight instruction's state in parallel slices
// indexed by slot. The hot block is what issue and retire scan every cycle;
// the cold block is touched once per pipeline stage per instruction. The
// store itself is transient machine state: snapshots are only legal at
// drained boundaries where no slot is live, so none of it is serialized.
type infStore struct {
	gen []uint32 // current generation per slot; bumped on release

	// Hot: scanned every cycle.
	flags    []uint16
	class    []isa.Class // cached rec.Inst.Op.Class(); read per issue-scan hit
	cluster  []int32
	resultAt []int64
	doneAt   []int64
	readyAt  []int64 // final ready cycle once fResolved

	// Wakeup bookkeeping.
	waitCount  []int32  // unresolved dependencies while in RS
	rsSlot     []int32  // position in rsEntries[cluster] while in RS
	waiterHead []uint32 // head of this producer's waiter list (node+1; 0 = none)
	waiterNext []uint32 // per node (slot*2+src): next node+1
	loadNext   []uint32 // store-barrier wait list links (slot+1; 0 = none)
	barrier    []uint64 // stores: own disambiguation seq; loads: newest older store seq

	// Cold: touched at rename/dispatch/issue/retire only.
	rec           []emu.Committed
	profile       []trace.Profile
	group         []uint64
	ctrl          []uint8 // cached decode-cache control kind; read at fetch
	station       []int32
	renameReady   []int64
	dispatchReady []int64
	rfReady       []int64
	src           [][2]isa.Reg
	dest          []isa.Reg // cached rec.Inst.Dest(); read at rename and retire
	prod          [][2]infID
	prevStore     []infID
	critProd      []infID
	critSrc       []uint8
	freeAfter     []uint64

	free []uint32 // recycled slots
}

// id returns the current reference for a live slot.
func (s *infStore) id(idx uint32) infID {
	return infID(uint64(s.gen[idx])<<32 | uint64(idx))
}

// index resolves id to its slot, panicking *core.InvariantError when the
// slot has been recycled since id was created (use-after-free detection).
func (s *infStore) index(id infID) uint32 {
	idx := uint32(id)
	if idx >= uint32(len(s.gen)) || uint32(id>>32) != s.gen[idx] {
		s.stale(id)
	}
	return idx
}

// stale reports a generation-check failure out of line so the check itself
// stays allocation-free on the hot path.
//
//ctcp:coldpath
func (s *infStore) stale(id infID) {
	idx := uint32(id)
	gen := uint32(0)
	if idx < uint32(len(s.gen)) {
		gen = s.gen[idx]
	}
	panic(&core.InvariantError{Msg: fmt.Sprintf(
		"pipeline: stale inflight id %#x (slot %d, generation %d, store generation %d)",
		uint64(id), idx, uint32(id>>32), gen)})
}

// alloc hands out a slot. Steady state pops the free list; the store only
// grows while the in-flight window ramps up (bounded by ROB size plus
// graveyard slack), so the grow path is cold.
//
// Recycled slots are NOT zeroed: every field is either fully written before
// its first read in the new life, or provably zero at release time. The
// discipline, field by field:
//
//   - rec, class, dest, src, ctrl, cluster, group, profile, resultAt,
//     doneAt, flags: fully assigned in newInflight (flags as one whole-word
//     store, never |= on a recycled slot).
//   - renameReady: written by fetch for every consumed slot before the id
//     enters fetchQ.
//   - rfReady, dispatchReady, prevStore: fully assigned at rename.
//   - barrier: assigned at rename for loads and stores, and only ever read
//     under fIsLoad/fIsStore.
//   - station, rsSlot: assigned at insertRS before any read.
//   - waitCount: assigned (not accumulated) in linkDeps.
//   - readyAt, critSrc: assigned in resolve, which every instruction passes
//     through before its ready-mask bit (the only gate to reading them) is
//     set.
//   - critProd: assigned in resolve when fCritFwd is set, read only under
//     fCritFwd, and severed at retire.
//   - prod: per-source entries are written at rename only for in-flight
//     producers, but retire zeroes the whole pair, so a recycled slot always
//     starts from [noID, noID].
//   - waiterHead/waiterNext/loadNext: self-cleaning. This model fetches the
//     committed stream only (no wrong-path work is ever discarded), so every
//     instruction issues before it retires: wakeWaiters drains and zeroes the
//     producer's waiter list at issue, and the store watermark drains and
//     zeroes every registered load link. A slot can only be released retired,
//     hence with all three at zero.
//   - freeAfter: assigned at retire before reclaim reads it.
func (s *infStore) alloc() uint32 {
	n := len(s.free)
	if n == 0 {
		return s.grow()
	}
	idx := s.free[n-1]
	s.free = s.free[:n-1]
	return idx
}

// grow appends one zeroed slot to every parallel slice while the window
// ramps up to its steady-state population.
//
//ctcp:coldpath
func (s *infStore) grow() uint32 {
	idx := uint32(len(s.gen))
	s.gen = append(s.gen, 1)
	s.flags = append(s.flags, 0)
	s.class = append(s.class, 0)
	s.cluster = append(s.cluster, 0)
	s.resultAt = append(s.resultAt, 0)
	s.doneAt = append(s.doneAt, 0)
	s.readyAt = append(s.readyAt, 0)
	s.waitCount = append(s.waitCount, 0)
	s.rsSlot = append(s.rsSlot, 0)
	s.waiterHead = append(s.waiterHead, 0)
	s.waiterNext = append(s.waiterNext, 0, 0)
	s.loadNext = append(s.loadNext, 0)
	s.barrier = append(s.barrier, 0)
	s.rec = append(s.rec, emu.Committed{})
	s.profile = append(s.profile, trace.Profile{})
	s.group = append(s.group, 0)
	s.ctrl = append(s.ctrl, 0)
	s.station = append(s.station, 0)
	s.renameReady = append(s.renameReady, 0)
	s.dispatchReady = append(s.dispatchReady, 0)
	s.rfReady = append(s.rfReady, 0)
	s.src = append(s.src, [2]isa.Reg{})
	s.dest = append(s.dest, isa.NoReg)
	s.prod = append(s.prod, [2]infID{})
	s.prevStore = append(s.prevStore, noID)
	s.critProd = append(s.critProd, noID)
	s.critSrc = append(s.critSrc, 0)
	s.freeAfter = append(s.freeAfter, 0)
	return idx
}

// reserve gives every slice grow or release appends to room for n more
// slots, so a window that ramps up to n live slots never reallocates. It
// must cover exactly the slices grow appends to, plus the free list
// (TestInfStoreReserveCoversEverySlice pins that).
func (s *infStore) reserve(n int) {
	s.gen = slices.Grow(s.gen, n)
	s.flags = slices.Grow(s.flags, n)
	s.class = slices.Grow(s.class, n)
	s.cluster = slices.Grow(s.cluster, n)
	s.resultAt = slices.Grow(s.resultAt, n)
	s.doneAt = slices.Grow(s.doneAt, n)
	s.readyAt = slices.Grow(s.readyAt, n)
	s.waitCount = slices.Grow(s.waitCount, n)
	s.rsSlot = slices.Grow(s.rsSlot, n)
	s.waiterHead = slices.Grow(s.waiterHead, n)
	s.waiterNext = slices.Grow(s.waiterNext, 2*n)
	s.loadNext = slices.Grow(s.loadNext, n)
	s.barrier = slices.Grow(s.barrier, n)
	s.rec = slices.Grow(s.rec, n)
	s.profile = slices.Grow(s.profile, n)
	s.group = slices.Grow(s.group, n)
	s.ctrl = slices.Grow(s.ctrl, n)
	s.station = slices.Grow(s.station, n)
	s.renameReady = slices.Grow(s.renameReady, n)
	s.dispatchReady = slices.Grow(s.dispatchReady, n)
	s.rfReady = slices.Grow(s.rfReady, n)
	s.src = slices.Grow(s.src, n)
	s.dest = slices.Grow(s.dest, n)
	s.prod = slices.Grow(s.prod, n)
	s.prevStore = slices.Grow(s.prevStore, n)
	s.critProd = slices.Grow(s.critProd, n)
	s.critSrc = slices.Grow(s.critSrc, n)
	s.freeAfter = slices.Grow(s.freeAfter, n)
	s.free = slices.Grow(s.free, n)
}

// reset empties the store, keeping every slice's capacity. It must truncate
// exactly the slices grow appends to (TestInfStoreResetTruncatesEverySlice
// pins that), so the next grow numbers slots from 0 again and writes each
// one's zero values over the old contents.
func (s *infStore) reset() {
	s.gen = s.gen[:0]
	s.flags = s.flags[:0]
	s.class = s.class[:0]
	s.cluster = s.cluster[:0]
	s.resultAt = s.resultAt[:0]
	s.doneAt = s.doneAt[:0]
	s.readyAt = s.readyAt[:0]
	s.waitCount = s.waitCount[:0]
	s.rsSlot = s.rsSlot[:0]
	s.waiterHead = s.waiterHead[:0]
	s.waiterNext = s.waiterNext[:0]
	s.loadNext = s.loadNext[:0]
	s.barrier = s.barrier[:0]
	s.rec = s.rec[:0]
	s.profile = s.profile[:0]
	s.group = s.group[:0]
	s.ctrl = s.ctrl[:0]
	s.station = s.station[:0]
	s.renameReady = s.renameReady[:0]
	s.dispatchReady = s.dispatchReady[:0]
	s.rfReady = s.rfReady[:0]
	s.src = s.src[:0]
	s.dest = s.dest[:0]
	s.prod = s.prod[:0]
	s.prevStore = s.prevStore[:0]
	s.critProd = s.critProd[:0]
	s.critSrc = s.critSrc[:0]
	s.freeAfter = s.freeAfter[:0]
	s.free = s.free[:0]
}

// release recycles a slot: the generation bump invalidates every outstanding
// reference to the record that lived there.
func (s *infStore) release(idx uint32) {
	s.gen[idx]++
	s.free = append(s.free, idx)
}

// live reports how many slots are currently allocated (tests).
func (s *infStore) live() int { return len(s.gen) - len(s.free) }
