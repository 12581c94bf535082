package pipeline

// The in-flight ring: each in-flight instruction's state is one inflight
// record in a fixed ring indexed by a compact id. A stage fetches a record
// once (one bounds check) and reads its fields at fixed offsets, and the
// scheduler's inner loop walks a bitmask and the leading cache line of the
// records it picks.
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
// intrusive list threaded through the records, one node per (consumer,
// source) pair) and, for loads, with the store-disambiguation watermark
// ring. When the last dependency resolves, the entry's ready cycle —
// identical to what the old readiness() would have computed at issue time,
// because every term is fixed once the producers have issued — is computed
// once. From that cycle on the entry's bit is set in its cluster's ready
// mask; until then it waits on the due list of that cycle. Issue scans the
// mask with bits.TrailingZeros64 in age order (mask bit order == age order
// within a cluster) and re-reads the scanned word after every issue so a
// store issuing earlier in the scan can unblock a younger load in the same
// cycle, exactly as the per-entry recompute allowed.

import (
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/trace"
)

// infID is a generation-checked reference to an inflight store slot.
// 0 is the nil reference (generations start at 1).
type infID uint64

const noID infID = 0

// flag bits of inflight.flags.
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
	// readyAt/critSrc fields are final, and its ready-mask bit is set from
	// cycle readyAt on (it waits on a due list before that).
	fResolved
)

// inflight is one in-flight instruction's state. The hot block leads the
// record: it is what the issue scan and retire read every cycle, so a
// scanned record costs its first cache line. The rest is touched once per
// pipeline stage per instruction.
type inflight struct {
	// Hot: scanned every cycle. rsSlot fills what would otherwise be
	// padding.
	gen      uint32 // current generation; bumped by alloc each lap
	flags    uint16
	class    isa.Class // copy of rec.Inst.Op.Class(); read per issue-scan hit
	cluster  int32
	rsSlot   int32 // position in the window cl[cluster].ids while in RS
	resultAt int64
	readyAt  int64 // final ready cycle once fResolved

	// Wakeup bookkeeping.
	waitCount  int32     // unresolved dependencies while in RS
	waiterHead uint32    // head of this producer's waiter list (node+1; 0 = none)
	waiterNext [2]uint32 // per source k, node slot*2+k: next node+1
	// waitNext is the record's one wait link (slot+1; 0 = none): on a
	// store-watermark list while a load waits for older stores, then on a
	// due list while a resolved entry waits for its ready cycle. A load
	// leaves the watermark list before it resolves, so the two never
	// overlap.
	waitNext uint32
	station  int32
	barrier  uint64 // stores: own disambiguation seq; loads: newest older store seq

	// Cold: touched at rename/dispatch/issue/retire only.
	rec           emu.Committed
	profile       trace.Profile
	critSrc       uint8
	group         uint64
	renameReady   int64
	dispatchReady int64
	rfReady       int64
	prod          [2]infID
	prevStore     infID
	critProd      infID
}

// infStore is the ring of in-flight records, indexed by slot. The store
// itself is transient machine state: snapshots are only legal at drained
// boundaries where no slot is live, so none of it is serialized.
type infStore struct {
	e    []inflight
	next uint32 // the slot alloc hands out next
}

// id returns the current reference to e, the record in slot idx.
//
//ctcp:inline
func (e *inflight) id(idx uint32) infID {
	return infID(uint64(e.gen)<<32 | uint64(idx))
}

// index resolves id to its slot, panicking *core.InvariantError when the
// ring has lapped the slot since id was created (use-after-free detection).
// The error's Ref is the stale id itself (slot in the low 32 bits,
// generation in the high 32): a constant message keeps the check inside the
// inlining budget.
//
//ctcp:inline
func (s *infStore) index(id infID) uint32 {
	idx := uint32(id)
	if idx >= uint32(len(s.e)) || uint32(id>>32) != s.e[idx].gen {
		panic(&core.InvariantError{Msg: "pipeline: stale inflight id", Ref: uint64(id)})
	}
	return idx
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
//   - rec, class, cluster, group, profile, resultAt, renameReady, flags,
//     prod: fully assigned in newInflight (flags as one whole-word store,
//     never |= on a reused slot; prod as [noID, noID], which rename then
//     fills in for in-flight producers only; resultAt as unknown, which
//     issue replaces with the cycle the result is ready, and that cycle is
//     also when retire and clearRedirect count the instruction complete).
//   - rfReady, dispatchReady, prevStore: fully assigned at rename.
//   - barrier: assigned at rename for loads and stores, and only ever read
//     under fIsLoad/fIsStore.
//   - station, rsSlot: assigned at insertRS before any read.
//   - waitCount: assigned (not accumulated) in linkDeps.
//   - readyAt, critSrc: assigned in resolve, which every instruction passes
//     through before it joins a due list or gets its ready-mask bit, and
//     read only under fResolved or from those.
//   - critProd: assigned in resolve when fCritFwd is set, and read only
//     under fCritFwd.
//   - waiterHead/waiterNext/waitNext: self-cleaning. This model fetches the
//     committed stream only (no wrong-path work is ever discarded), so every
//     instruction issues before it retires: wakeWaiters drains and zeroes the
//     producer's waiter list at issue, and the store watermark and the due
//     lists drain and zero every link they hold before the entry can issue.
//     The ring laps only retired tenants, hence with all three at zero;
//     reset clears them after a run abandoned mid-cycle.
func (s *infStore) alloc() uint32 {
	idx := s.next
	s.next = s.wrap(idx + 1)
	s.e[idx].gen++
	return idx
}

// wrap maps a slot position less than one lap past the ring's end back
// into the ring: the slot i positions after slot 0, modulo the ring size.
//
//ctcp:inline
func (s *infStore) wrap(i uint32) uint32 {
	if i >= uint32(len(s.e)) {
		i -= uint32(len(s.e))
	}
	return i
}

// size replaces the store with an empty ring of n slots.
func (s *infStore) size(n int) {
	*s = infStore{e: make([]inflight, n)}
}

// reset empties the ring in place. It clears the generations, so the next
// alloc hands out slot 0 under generation 1 as in a new ring, and the links
// alloc expects to find zero, which a run abandoned mid-cycle can leave
// set. Every other field is written before it is read (see alloc).
func (s *infStore) reset() {
	for i := range s.e {
		e := &s.e[i]
		e.gen = 0
		e.waiterHead = 0
		e.waiterNext = [2]uint32{}
		e.waitNext = 0
	}
	s.next = 0
}
