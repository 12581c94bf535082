package pipeline

// Struct-of-arrays inflight store. The cycle model used to chase *inflight
// pointers through prod/critProd/prevStore links and recompute readiness()
// per reservation-station entry per cycle; the store here keeps the same
// per-instruction state in dense parallel slices indexed by a compact id, so
// the scheduler's inner loop walks a few cache lines and a bitmask instead
// of a scattered linked structure.
//
// Identity. An infID packs a uint32 slot index with a uint32 generation
// (gen<<32 | idx). A slot's first tenant gets generation 1, so infID(0)
// never names a tenant and doubles as the nil reference. This model never
// fetches a wrong path, so instructions leave the window at retire in the
// order they entered it at fetch, and the store is a ring: alloc hands out
// slots in turn and bumps the slot's generation each lap, and nothing ever
// frees a slot. A reference that illegally outlives its tenant's lap fails
// the generation check loudly (*core.InvariantError, recovered into
// *SimError at the run boundary) instead of silently reading a younger
// instruction's state.
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
	gen []uint32 // current generation per slot; bumped by alloc each lap

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

	next uint32 // the slot alloc hands out next
}

// id returns the current reference for a live slot.
func (s *infStore) id(idx uint32) infID {
	return infID(uint64(s.gen[idx])<<32 | uint64(idx))
}

// index resolves id to its slot, panicking *core.InvariantError when the
// ring has lapped the slot since id was created (use-after-free detection).
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

// alloc hands out the next slot in ring order under a new generation. The
// ring is sized so that a slot comes round again only after every reference
// to its previous tenant is dead (see the ring size in Reset); a reference
// that outlives its tenant anyway fails index's generation check.
//
// Slots are NOT zeroed before reuse: every field is either fully written
// before its first read in the new tenancy, or provably zero when the ring
// laps the slot. The discipline, field by field:
//
//   - rec, class, dest, src, ctrl, cluster, group, profile, resultAt,
//     doneAt, renameReady, flags, prod: fully assigned in newInflight
//     (flags as one whole-word store, never |= on a reused slot; prod as
//     [noID, noID], which rename then fills in for in-flight producers
//     only).
//   - rfReady, dispatchReady, prevStore: fully assigned at rename.
//   - barrier: assigned at rename for loads and stores, and only ever read
//     under fIsLoad/fIsStore.
//   - station, rsSlot: assigned at insertRS before any read.
//   - waitCount: assigned (not accumulated) in linkDeps.
//   - readyAt, critSrc: assigned in resolve, which every instruction passes
//     through before its ready-mask bit (the only gate to reading them) is
//     set.
//   - critProd: assigned in resolve when fCritFwd is set, and read only
//     under fCritFwd.
//   - waiterHead/waiterNext/loadNext: self-cleaning. This model fetches the
//     committed stream only (no wrong-path work is ever discarded), so every
//     instruction issues before it retires: wakeWaiters drains and zeroes the
//     producer's waiter list at issue, and the store watermark drains and
//     zeroes every registered load link. The ring laps only retired tenants,
//     hence with all three at zero; reset clears them after a run abandoned
//     mid-cycle.
func (s *infStore) alloc() uint32 {
	idx := s.next
	s.next = s.wrap(idx + 1)
	s.gen[idx]++
	return idx
}

// wrap maps a slot position less than one lap past the ring's end back
// into the ring: the slot i positions after slot 0, modulo the ring size.
func (s *infStore) wrap(i uint32) uint32 {
	if i >= uint32(len(s.gen)) {
		i -= uint32(len(s.gen))
	}
	return i
}

// size replaces the store with an empty ring of n slots.
func (s *infStore) size(n int) {
	*s = infStore{
		gen:           make([]uint32, n),
		flags:         make([]uint16, n),
		class:         make([]isa.Class, n),
		cluster:       make([]int32, n),
		resultAt:      make([]int64, n),
		doneAt:        make([]int64, n),
		readyAt:       make([]int64, n),
		waitCount:     make([]int32, n),
		rsSlot:        make([]int32, n),
		waiterHead:    make([]uint32, n),
		waiterNext:    make([]uint32, 2*n),
		loadNext:      make([]uint32, n),
		barrier:       make([]uint64, n),
		rec:           make([]emu.Committed, n),
		profile:       make([]trace.Profile, n),
		group:         make([]uint64, n),
		ctrl:          make([]uint8, n),
		station:       make([]int32, n),
		renameReady:   make([]int64, n),
		dispatchReady: make([]int64, n),
		rfReady:       make([]int64, n),
		src:           make([][2]isa.Reg, n),
		dest:          make([]isa.Reg, n),
		prod:          make([][2]infID, n),
		prevStore:     make([]infID, n),
		critProd:      make([]infID, n),
		critSrc:       make([]uint8, n),
	}
}

// reset empties the ring in place. It clears the generations, so the next
// alloc hands out slot 0 under generation 1 as in a new ring, and the links
// alloc expects to find zero, which a run abandoned mid-cycle can leave
// set. Every other field is written before it is read (see alloc).
func (s *infStore) reset() {
	clear(s.gen)
	clear(s.waiterHead)
	clear(s.waiterNext)
	clear(s.loadNext)
	s.next = 0
}
