package core

import (
	"fmt"

	"ctcp/internal/cluster"
	"ctcp/internal/isa"
	"ctcp/internal/pcmap"
	"ctcp/internal/trace"
)

// Config parameterizes the fill unit.
type Config struct {
	Strategy StrategyKind
	Geom     cluster.Geometry
	Trace    trace.Config
	// DisableChains turns off inter-trace chain feedback, leaving only the
	// intra-trace dynamic-criticality heuristics (the paper's "isolating the
	// intra-trace heuristics" ablation, §5.3).
	DisableChains bool
	// ChainTableCap bounds the chain profile table; 0 selects the default of
	// 4x the trace cache's instruction capacity.
	ChainTableCap int
}

// FillStats counts fill-unit and assignment activity.
type FillStats struct {
	TracesBuilt uint64
	InstsBuilt  uint64

	// OptionCounts histograms the FDRT policy option applied per instruction
	// (Table 5 / Figure 7): A, B, C, D, E; Skipped counts A–D instructions
	// that found no slot near their target and fell back to Friendly
	// placement.
	OptionA, OptionB, OptionC, OptionD, OptionE uint64
	Skipped                                     uint64

	// Chain bookkeeping.
	LeadersCreated   uint64
	FollowersCreated uint64

	// Cluster migration (Table 9): instructions whose assigned cluster
	// differs from their previous dynamic construction.
	Seen          uint64 // instructions with a previous assignment
	Migrated      uint64
	ChainSeen     uint64
	ChainMigrated uint64
}

// MigrationRate returns Migrated/Seen.
func (s FillStats) MigrationRate() float64 {
	if s.Seen == 0 {
		return 0
	}
	return float64(s.Migrated) / float64(s.Seen)
}

// ChainMigrationRate returns ChainMigrated/ChainSeen.
func (s FillStats) ChainMigrationRate() float64 {
	if s.ChainSeen == 0 {
		return 0
	}
	return float64(s.ChainMigrated) / float64(s.ChainSeen)
}

// FillUnit consumes the retiring instruction stream, maintains cluster-chain
// feedback, constructs traces, assigns clusters per the configured strategy,
// and installs the finished lines into the trace cache.
//
// The fill unit runs once per retired instruction, so its assignment pass is
// part of the simulator's hot path: cluster priority orders that depend only
// on the geometry are computed once per geometry (see Reset), and all per-trace
// working state lives in reusable scratch buffers rather than per-call
// allocations.
type FillUnit struct {
	cfg     Config
	builder *trace.Builder
	tc      *trace.Cache
	chains  *ChainProfile
	pending []RetireInfo

	// lastCluster tracks each static instruction's most recent assignment
	// for the migration statistics of Table 9. It is updated for every slot
	// of every built trace, so it uses the same dense PC-indexed layout as
	// the chain table.
	lastCluster pcmap.Map[clusterSlot]

	// Geometry-derived cluster orders, rebuilt only when Reset changes the
	// geometry.
	selfFirst [][]int // selfFirst[c] = [c, neighbors of c middle-most first]
	midsTrunc []int   // the Clusters/2 (min 1) middle-most clusters
	natOrder  []int   // slot indices 0..TotalWidth-1
	midOrder  []int   // slot indices grouped by cluster, middle-most first

	// Per-trace scratch, reused across traces.
	assigned  []int
	capacity  []int
	prods     [][2]int
	consumers []bool
	order     []int
	nextSlot  []int

	S FillStats
}

// NewFillUnit builds a fill unit that installs into tc, which it empties.
func NewFillUnit(cfg Config, tc *trace.Cache) *FillUnit {
	f := new(FillUnit)
	f.Reset(cfg, tc)
	return f
}

// Reset returns the fill unit, in any state, to the state NewFillUnit(cfg,
// tc) builds, and empties tc. Storage survives where its shape does: when tc
// is the cache the unit already fills, its installed lines join the
// builder's recycled pool before the cache is cleared; the chain table, the
// per-PC tables and the pending buffer are emptied in place; and the
// geometry-derived cluster orders and per-trace scratch are kept unless
// the geometry or the trace length changed.
func (f *FillUnit) Reset(cfg Config, tc *trace.Cache) {
	capLimit := cfg.ChainTableCap
	if capLimit == 0 {
		capLimit = 4 * cfg.Trace.Lines * cfg.Trace.MaxLen
	}
	if f.chains == nil || f.chains.capLimit != capLimit {
		f.chains = NewChainProfile(capLimit)
	} else {
		f.chains.Reset()
	}
	if f.builder == nil {
		f.builder = trace.NewBuilder(cfg.Trace)
	} else {
		f.builder.Reset(cfg.Trace)
	}
	if tc == f.tc {
		for _, set := range tc.Dump() {
			for _, line := range set {
				f.builder.Recycle(line)
			}
		}
	}
	tc.Reset()
	f.tc = tc
	if f.capacity == nil || cfg.Geom != f.cfg.Geom || cfg.Trace.MaxLen != f.cfg.Trace.MaxLen {
		f.layout(cfg.Geom, cfg.Trace.MaxLen)
	}
	f.cfg = cfg
	f.pending = f.pending[:0]
	f.lastCluster.Reset()
	f.S = FillStats{}
}

// layout builds the geometry-derived cluster orders and sizes the per-trace
// scratch buffers for traces of up to maxLen instructions.
func (f *FillUnit) layout(g cluster.Geometry, maxLen int) {
	f.selfFirst = make([][]int, g.Clusters)
	for c := 0; c < g.Clusters; c++ {
		f.selfFirst[c] = append([]int{c}, g.Neighbors(c)...)
	}
	mids := g.MiddleClusters()
	half := g.Clusters / 2
	if half < 1 {
		half = 1
	}
	f.midsTrunc = mids[:half]
	f.natOrder = make([]int, g.TotalWidth())
	for i := range f.natOrder {
		f.natOrder[i] = i
	}
	f.midOrder = nil
	for _, c := range mids {
		for k := 0; k < g.Width; k++ {
			f.midOrder = append(f.midOrder, c*g.Width+k)
		}
	}
	f.capacity = make([]int, g.Clusters)
	f.nextSlot = make([]int, g.Clusters)
	f.assigned = make([]int, 0, maxLen)
	f.prods = make([][2]int, 0, maxLen)
	f.consumers = make([]bool, 0, maxLen)
	f.order = make([]int, 0, g.Clusters+2)
	f.pending = make([]RetireInfo, 0, maxLen)
}

// Chains exposes the chain profile table (the pipeline reads it when
// attaching profiles to icache-fetched instructions is not modeled; tests
// inspect it).
func (f *FillUnit) Chains() *ChainProfile { return f.chains }

// MemoStats always returns 0, 0: the fill unit keeps no assignment memo.
// It exists only because cmd/ctcpperf, the repository's benchmark, still
// calls it; it goes when the benchmark stops doing so.
func (f *FillUnit) MemoStats() (hits, misses uint64) { return 0, 0 }

// Retire feeds one retired instruction to the fill unit. The record is
// copied once (into the pending buffer); it is passed by pointer because
// RetireInfo is ~200 bytes and this is called once per retired instruction.
// Callers building the record field by field can skip even that copy with
// the RetireSlot/CommitRetire pair.
func (f *FillUnit) Retire(info *RetireInfo) {
	*f.RetireSlot() = *info
	f.CommitRetire()
}

// RetireSlot extends the pending buffer by one record and returns it for the
// caller to fill in place — the zero-copy half of the retire path: the
// pipeline composes the ~200-byte RetireInfo directly in the buffer slot it
// will be consumed from instead of building it in scratch and copying it in.
// The slot may hold a stale record from an earlier trace; the caller must
// overwrite it completely, then call CommitRetire.
func (f *FillUnit) RetireSlot() *RetireInfo {
	if n := len(f.pending); n < cap(f.pending) {
		f.pending = f.pending[:n+1]
	} else {
		f.pending = append(f.pending, RetireInfo{})
	}
	return &f.pending[len(f.pending)-1]
}

// CommitRetire processes the record most recently obtained from RetireSlot
// and filled in by the caller. If the record completes a trace, the pending
// buffer is logically truncated, but the committed record's storage is not
// rewritten, so the pointer RetireSlot returned remains readable (not
// writable) until the next RetireSlot call.
func (f *FillUnit) CommitRetire() {
	info := &f.pending[len(f.pending)-1]
	f.updateChains(info)
	if tr := f.builder.AddRec(&info.Rec); tr != nil {
		f.finishTrace(tr)
	}
}

// Flush completes any partial trace (end of simulation).
func (f *FillUnit) Flush() {
	if tr := f.builder.Flush(); tr != nil {
		f.finishTrace(tr)
	}
}

func (f *FillUnit) finishTrace(tr *trace.Trace) {
	infos := f.pending
	f.S.TracesBuilt++
	f.S.InstsBuilt += uint64(len(tr.Slots))
	f.assign(tr, infos)
	tr.CheckSlotIndices(f.cfg.Trace.MaxLen)
	f.recordMigration(tr)
	// Recycle the displaced line: Install guarantees nothing references it
	// once it returns (the pipeline copies everything out of a trace during
	// the synchronous fetch), so its storage can back a future build.
	if displaced := f.tc.Install(tr); displaced != nil {
		f.builder.Recycle(displaced)
	}
	f.pending = f.pending[:0]
}

// updateChains applies the leader/follower criteria of Table 4 using the
// dynamic critical-input feedback of one retiring consumer. Membership is
// judged from the profile bits the instruction instances actually carried
// (their trace-line bits), overlaid with any still-pending designations;
// new designations go to the pending table until the fill unit next builds
// a trace containing the instruction.
func (f *FillUnit) updateChains(info *RetireInfo) {
	if !f.cfg.Strategy.UsesChains() || f.cfg.DisableChains {
		return
	}
	if info.CritSrc == CritNone || !info.CritForwarded || !info.CritInterTrace {
		return
	}
	pin := f.cfg.Strategy.Pins()
	// Producer side: an instruction that forwards data to an inter-trace
	// consumer and is not yet a chain member becomes a leader, pinned (or
	// not) to the cluster it executed on.
	pPC := info.CritProducerPC
	pProf := info.CritProducerProfile
	if pend, ok := f.chains.peek(pPC); ok {
		pProf = pend
	}
	// Table 4 condition 2 for followers requires the producer to already be
	// a member when the dependence is observed; a producer designated a
	// leader by this very event recruits followers only on later occurrences.
	// This staged growth keeps chains short-lived and bounded, matching the
	// option distribution of Figure 7.
	pMemberBefore := pProf.IsMember()
	if !pProf.IsMember() {
		// The suggested destination cluster for a new leader is the cluster
		// it just executed on: the rest of its dataflow context already
		// lives there, and pinning freezes that affinity.
		pProf = trace.Profile{Role: trace.RoleLeader, ChainCluster: uint8(info.CritProducerCluster)}
		f.chains.Set(pPC, pProf)
		f.S.LeadersCreated++
	} else if !pin {
		// Without pinning a member chases the cluster its producer (or its
		// own execution) most recently used — the instability Table 9
		// quantifies.
		pProf.ChainCluster = uint8(info.CritProducerCluster)
		f.chains.Set(pPC, pProf)
	}
	// Consumer side: joins the producer's chain if it is not yet a member
	// and the producer supplied its last-arriving input from another trace.
	cPC := info.Rec.PC
	cProf := info.Profile
	if pend, ok := f.chains.peek(cPC); ok {
		cProf = pend
	}
	_ = pMemberBefore
	if !cProf.IsMember() {
		f.chains.Set(cPC, trace.Profile{Role: trace.RoleFollower, ChainCluster: pProf.ChainCluster})
		f.S.FollowersCreated++
	} else if !pin && cProf.Role == trace.RoleFollower {
		cProf.ChainCluster = pProf.ChainCluster
		f.chains.Set(cPC, cProf)
	}
}

// clusterSlot is one dense migration-history slot: the most recent cluster
// assignment for a static PC plus its presence bit.
type clusterSlot struct {
	cluster int16
	present bool
}

func (f *FillUnit) recordMigration(tr *trace.Trace) {
	for i := range tr.Slots {
		s := &tr.Slots[i]
		e := f.lastCluster.Ensure(s.PC)
		if e.present {
			f.S.Seen++
			isChain := s.Profile.IsMember()
			if isChain {
				f.S.ChainSeen++
			}
			if int(e.cluster) != s.Cluster {
				f.S.Migrated++
				if isChain {
					f.S.ChainMigrated++
				}
			}
		}
		*e = clusterSlot{cluster: int16(s.Cluster), present: true}
	}
}

// assign sets SlotIndex/Cluster/Profile for every slot of tr: the Table 5
// assignment pass.
func (f *FillUnit) assign(tr *trace.Trace, infos []RetireInfo) {
	// The profile written into the new line is the one the retiring
	// instance carried (its old line's bits), unless a pending designation
	// exists, which is consumed here. Instances fetched from the icache
	// carry no bits: designations not refreshed by a pending entry are lost,
	// exactly as when a trace line is evicted.
	for i := range tr.Slots {
		if pend, ok := f.chains.Take(tr.Slots[i].PC); ok {
			tr.Slots[i].Profile = pend
		} else if len(infos) == len(tr.Slots) {
			tr.Slots[i].Profile = infos[i].Profile
		} else {
			tr.Slots[i].Profile = trace.Profile{}
		}
	}
	switch f.cfg.Strategy {
	case Friendly:
		f.resetAssign(len(tr.Slots))
		f.friendlyAssign(tr, f.natOrder, f.intraProducers(tr))
		f.materialize(tr)
	case FriendlyMiddle:
		f.resetAssign(len(tr.Slots))
		f.friendlyAssign(tr, f.midOrder, f.intraProducers(tr))
		f.materialize(tr)
	case FDRT, FDRTNoPin:
		f.fdrtAssign(tr, infos)
		f.materialize(tr)
	default: // Base, IssueTime: identity placement
		for i := range tr.Slots {
			tr.Slots[i].SlotIndex = i
			tr.Slots[i].Cluster = f.cfg.Geom.SlotCluster(i)
		}
	}
}

// resetAssign clears the per-trace assignment scratch: no instruction
// placed, full Width capacity in every cluster.
func (f *FillUnit) resetAssign(n int) {
	f.assigned = f.assigned[:0]
	for i := 0; i < n; i++ {
		f.assigned = append(f.assigned, -1)
	}
	for c := range f.capacity {
		f.capacity[c] = f.cfg.Geom.Width
	}
}

// tryAssign places instruction i into the first cluster of the priority
// order with spare capacity.
func (f *FillUnit) tryAssign(i int, clusters []int) bool {
	for _, c := range clusters {
		if c >= 0 && c < f.cfg.Geom.Clusters && f.capacity[c] > 0 {
			f.assigned[i] = c
			f.capacity[c]--
			return true
		}
	}
	return false
}

// intraProducers fills and returns, for each slot, the logical index of the
// nearest earlier slot writing one of its source registers (-1 if none).
// Index 0 is RS1's producer, index 1 is RS2's. The result aliases the fill
// unit's scratch buffer and is valid until the next trace.
func (f *FillUnit) intraProducers(tr *trace.Trace) [][2]int {
	f.prods = f.prods[:0]
	var lastDef [isa.NumRegs]int
	for i := range lastDef {
		lastDef[i] = -1
	}
	for i := range tr.Slots {
		s1, s2 := tr.Slots[i].Inst.Srcs()
		p := [2]int{-1, -1}
		if s1 != isa.NoReg {
			p[0] = lastDef[s1]
		}
		if s2 != isa.NoReg {
			p[1] = lastDef[s2]
		}
		f.prods = append(f.prods, p)
		if d := tr.Slots[i].Inst.Dest(); d != isa.NoReg {
			lastDef[d] = i
		}
	}
	return f.prods
}

// intraConsumers fills and returns, for each slot, whether a later slot
// reads its destination before it is redefined; prods must be the matching
// intraProducers result.
func (f *FillUnit) intraConsumers(tr *trace.Trace, prods [][2]int) []bool {
	f.consumers = f.consumers[:0]
	for range tr.Slots {
		f.consumers = append(f.consumers, false)
	}
	for i := range prods {
		for _, p := range prods[i] {
			if p >= 0 {
				f.consumers[p] = true
			}
		}
	}
	return f.consumers
}

// friendlyAssign implements the prior retire-time scheme: walk issue slots
// in slotOrder; for each slot, choose the oldest unplaced instruction with a
// static intra-trace input dependence on an instruction already assigned to
// that slot's cluster, else the oldest unplaced instruction. It operates on
// the current f.assigned/f.capacity state, so clusters already fixed by FDRT
// are respected and only unassigned instructions (-1) are placed.
func (f *FillUnit) friendlyAssign(tr *trace.Trace, slotOrder []int, prods [][2]int) {
	g := f.cfg.Geom
	n := len(tr.Slots)
	remaining := 0
	for _, c := range f.assigned {
		if c < 0 {
			remaining++
		}
	}
	for _, slot := range slotOrder {
		if remaining == 0 {
			break
		}
		c := g.SlotCluster(slot)
		if f.capacity[c] <= 0 {
			continue
		}
		pick := -1
		for i := 0; i < n; i++ {
			if f.assigned[i] >= 0 {
				continue
			}
			for _, p := range prods[i] {
				if p >= 0 && f.assigned[p] == c {
					pick = i
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for i := 0; i < n; i++ {
				if f.assigned[i] < 0 {
					pick = i
					break
				}
			}
		}
		f.assigned[pick] = c
		f.capacity[c]--
		remaining--
	}
}

// fdrtAssign implements Table 5. It walks instructions oldest to youngest,
// classifies each by (critical intra-trace producer, chain membership,
// intra-trace consumer), and tries the published cluster priority lists.
// Instructions that cannot be placed are assigned afterwards with Friendly's
// slot scan over the remaining capacity.
func (f *FillUnit) fdrtAssign(tr *trace.Trace, infos []RetireInfo) {
	g := f.cfg.Geom
	n := len(tr.Slots)
	f.resetAssign(n)
	// Dynamic critical-producer identification maps commit sequence numbers
	// to logical indices. The infos are consecutive retired instructions, so
	// their Seqs are contiguous and the index is a subtraction (the equality
	// check below keeps this exact even if a stream ever produced gaps).
	var seqBase uint64
	if len(infos) == n && n > 0 {
		seqBase = infos[0].Rec.Seq
	}
	statics := f.intraProducers(tr)
	consumers := f.intraConsumers(tr, statics)
	const useStaticFallback = true

	for i := 0; i < n; i++ {
		// Critical intra-trace producer: the instruction's last-arriving
		// input was produced by an earlier instruction of this same trace,
		// and that producer has already been placed. When the dynamic
		// critical input was not intra-trace, the nearest static intra-trace
		// producer stands in (the fill unit always has the static analysis).
		prodCl := -1
		critIntra := false
		if len(infos) == n {
			inf := infos[i]
			if inf.CritSrc != CritNone {
				if seq := inf.CritProducerSeq; seq >= seqBase && seq < seqBase+uint64(n) {
					if j := int(seq - seqBase); infos[j].Rec.Seq == seq && j < i && f.assigned[j] >= 0 {
						prodCl = f.assigned[j]
						critIntra = true
					}
				}
			}
		}
		if prodCl < 0 && useStaticFallback {
			for _, j := range statics[i] {
				if j >= 0 && f.assigned[j] >= 0 {
					prodCl = f.assigned[j]
				}
			}
		}
		prof := tr.Slots[i].Profile
		chainCl := -1
		if prof.IsMember() && int(prof.ChainCluster) < g.Clusters {
			chainCl = int(prof.ChainCluster)
		}
		switch {
		case prodCl >= 0 && chainCl < 0: // Option A
			f.S.OptionA++
			if !f.tryAssign(i, f.selfFirst[prodCl]) {
				f.S.Skipped++
			}
		case prodCl < 0 && chainCl >= 0: // Option B
			f.S.OptionB++
			if !f.tryAssign(i, f.selfFirst[chainCl]) {
				f.S.Skipped++
			}
			if f.assigned[i] != chainCl {
				// The member could not be placed on its chain cluster: its
				// profile bits are not rewritten into the new line (the
				// designation decays), so the chain re-forms around current
				// placements instead of chasing a stale pin.
				tr.Slots[i].Profile = trace.Profile{}
			}
		case prodCl >= 0 && chainCl >= 0: // Option C
			f.S.OptionC++
			// The observed critical input arbitrates: an intra-trace critical
			// input pulls toward the producer, an inter-trace one toward the
			// chain cluster.
			f.order = f.order[:0]
			if critIntra {
				f.order = append(f.order, prodCl, chainCl)
				f.order = append(f.order, f.selfFirst[prodCl][1:]...)
			} else {
				f.order = append(f.order, chainCl, prodCl)
				f.order = append(f.order, f.selfFirst[chainCl][1:]...)
			}
			if !f.tryAssign(i, f.order) {
				f.S.Skipped++
			}
			if f.assigned[i] != chainCl {
				tr.Slots[i].Profile = trace.Profile{} // designation decays
			}
		case consumers[i]: // Option D
			f.S.OptionD++
			// Only the true middle clusters are tried ("1. middle 2. skip"):
			// producers that do not fit funnel back through the Friendly
			// fallback instead of displacing option-A consumers.
			if !f.tryAssign(i, f.midsTrunc) {
				f.S.Skipped++
			}
		default: // Option E
			f.S.OptionE++
		}
	}
	// Friendly fallback for everything unassigned.
	f.friendlyAssign(tr, f.natOrder, statics)
}

// materialize turns the per-instruction cluster assignment into physical
// slot indices: instructions assigned to cluster c occupy slots c*W, c*W+1,
// ... in logical order, which preserves oldest-first selection within a
// cluster.
func (f *FillUnit) materialize(tr *trace.Trace) {
	g := f.cfg.Geom
	for c := range f.nextSlot {
		f.nextSlot[c] = 0
	}
	for i := range tr.Slots {
		c := f.assigned[i]
		if c < 0 || c >= g.Clusters {
			panic(&InvariantError{Msg: fmt.Sprintf(
				"core: materialize called with incomplete assignment (slot %d -> cluster %d of %d)",
				i, c, g.Clusters)})
		}
		tr.Slots[i].Cluster = c
		tr.Slots[i].SlotIndex = c*g.Width + f.nextSlot[c]
		f.nextSlot[c]++
	}
}
