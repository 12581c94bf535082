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
	builder trace.Builder
	tc      *trace.Cache
	chains  *ChainProfile
	// pending holds the retired records of the trace under construction,
	// one per slot: the only copy of that trace until finishTrace writes
	// its line.
	pending []RetireInfo
	// free holds lines displaced from the cache, whose storage backs later
	// builds: once the cache is full, every Install displaces one line, so
	// steady-state trace construction allocates nothing.
	free []*trace.Trace

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
	profiles  []trace.Profile // the profile each slot's line will carry
	assigned  []int
	capacity  []int
	prods     [][2]int32
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
// tc) builds, and empties tc. Storage survives where its shape does: the
// recycled-line pool is kept unless the trace configuration changed, and
// when tc is the cache the unit already fills, its installed lines join the
// pool before the cache is cleared; the chain table, the per-PC tables and
// the pending buffer are emptied in place; and the geometry-derived cluster
// orders and per-trace scratch are kept unless the geometry or the trace
// length changed.
func (f *FillUnit) Reset(cfg Config, tc *trace.Cache) {
	old := f.cfg
	f.cfg = cfg
	// The chain table holds up to 4x the trace cache's instruction capacity.
	capLimit := 4 * cfg.Trace.Lines * cfg.Trace.MaxLen
	if f.chains == nil || f.chains.capLimit != capLimit {
		f.chains = NewChainProfile(capLimit)
	} else {
		f.chains.Reset()
	}
	f.builder = trace.NewBuilder(cfg.Trace)
	if cfg.Trace != old.Trace {
		f.free = nil
	}
	if tc == f.tc {
		for _, set := range tc.Dump() {
			for _, line := range set {
				f.recycle(line)
			}
		}
	}
	tc.Reset()
	f.tc = tc
	if f.capacity == nil || cfg.Geom != old.Geom || cfg.Trace.MaxLen != old.Trace.MaxLen {
		f.layout(cfg.Geom, cfg.Trace.MaxLen)
	}
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
	f.profiles = make([]trace.Profile, 0, maxLen)
	f.nextSlot = make([]int, g.Clusters)
	f.assigned = make([]int, 0, maxLen)
	f.prods = make([][2]int32, 0, maxLen)
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
// copied once, into the pending buffer; it is passed by pointer because
// RetireInfo is ~200 bytes. Callers building the record field by field can
// skip the copy with the RetireSlot/CommitRetire pair.
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
// The buffer never outgrows the MaxLen capacity layout gives it: it holds
// one record per slot of the trace under construction.
func (f *FillUnit) RetireSlot() *RetireInfo {
	f.pending = f.pending[:len(f.pending)+1]
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
	if blocks := f.builder.Add(&info.Rec); blocks != 0 {
		f.finishTrace(blocks)
	}
}

// Flush completes any partial trace (end of simulation).
func (f *FillUnit) Flush() {
	if len(f.pending) > 0 {
		f.finishTrace(f.builder.Blocks())
		f.builder = trace.NewBuilder(f.cfg.Trace)
	}
}

// finishTrace builds the line for the pending records, a trace of blocks
// basic blocks, and installs it.
func (f *FillUnit) finishTrace(blocks int) {
	infos := f.pending
	n := len(infos)
	var tr *trace.Trace
	if k := len(f.free); k > 0 {
		tr, f.free = f.free[k-1], f.free[:k-1]
	} else {
		// The cache keeps the slot array, so size it for the worst case.
		tr = &trace.Trace{Slots: make([]trace.Slot, 0, f.cfg.Trace.MaxLen)}
	}
	*tr = trace.Trace{
		StartPC:      infos[0].Rec.PC,
		Slots:        tr.Slots[:n],
		Blocks:       blocks,
		EndsIndirect: infos[n-1].Rec.Inst.Op.Class() == isa.ClassJump,
	}
	f.S.TracesBuilt++
	f.S.InstsBuilt += uint64(n)
	f.assign(tr, infos)
	tr.CheckSlotIndices(f.cfg.Geom.TotalWidth())
	f.recordMigration(tr)
	// Recycle the displaced line: Install guarantees nothing references it
	// once it returns (the pipeline copies everything out of a trace during
	// the synchronous fetch), so its storage can back a future build.
	f.recycle(f.tc.Install(tr))
	f.pending = f.pending[:0]
}

// recycle adds a line no longer in the cache to the pool. The caller must
// guarantee nothing still references t: a later build overwrites its struct
// and slots wholesale. A line whose slot array is smaller than MaxLen (built
// under another configuration) is dropped rather than reused.
func (f *FillUnit) recycle(t *trace.Trace) {
	if t != nil && cap(t.Slots) >= f.cfg.Trace.MaxLen {
		f.free = append(f.free, t)
	}
}

// updateChains applies the leader/follower criteria of Table 4 using the
// dynamic critical-input feedback of one retiring consumer. Membership is
// judged from the profile bits the instruction instances actually carried
// (their trace-line bits), overlaid with any still-pending designations;
// new designations go to the pending table until the fill unit next builds
// a trace containing the instruction.
//
// Only a forwarded, inter-trace critical input can change a designation;
// every other retiring instruction returns at the inline check.
//
//ctcp:inline
func (f *FillUnit) updateChains(info *RetireInfo) {
	if info.CritForwarded && info.CritInterTrace && info.CritSrc != CritNone {
		f.designate(info)
	}
}

// designate is updateChains for a forwarded, inter-trace critical input.
func (f *FillUnit) designate(info *RetireInfo) {
	if !f.cfg.Strategy.UsesChains() || f.cfg.DisableChains {
		return
	}
	pin := f.cfg.Strategy.Pins()
	// Producer side: an instruction that forwards data to an inter-trace
	// consumer and is not yet a chain member becomes a leader, pinned (or
	// not) to the cluster it executed on.
	pPC := info.CritProducerPC
	pProf := info.CritProducerProfile
	if pend := f.chains.peek(pPC); pend.stamp != 0 {
		pProf = pend.prof
	}
	// Table 4 condition 2 for followers requires the producer to already be
	// a member when the dependence is observed; a producer designated a
	// leader by this very event recruits followers only on later occurrences.
	// This staged growth keeps chains short-lived and bounded, matching the
	// option distribution of Figure 7.
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
	if pend := f.chains.peek(cPC); pend.stamp != 0 {
		cProf = pend.prof
	}
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

// assign is the Table 5 assignment pass: it places each pending record in
// a cluster and writes tr's slots, each once, in the pass that places it.
// infos[i] is the retired instance of slot i.
func (f *FillUnit) assign(tr *trace.Trace, infos []RetireInfo) {
	// The profile written into the new line is the one the retiring
	// instance carried (its old line's bits), unless a pending designation
	// exists, which is consumed here. Instances fetched from the icache
	// carry no bits: designations not refreshed by a pending entry are lost,
	// exactly as when a trace line is evicted.
	f.profiles = f.profiles[:len(infos)]
	for i := range infos {
		if pend, ok := f.chains.Take(infos[i].Rec.PC); ok {
			f.profiles[i] = pend
		} else {
			f.profiles[i] = infos[i].Profile
		}
	}
	switch f.cfg.Strategy {
	case Friendly:
		f.resetAssign(len(infos))
		f.friendlyAssign(f.natOrder, f.dataflow(infos))
	case FriendlyMiddle:
		f.resetAssign(len(infos))
		f.friendlyAssign(f.midOrder, f.dataflow(infos))
	case FDRT, FDRTNoPin:
		f.fdrtAssign(infos)
	default: // Base, IssueTime: identity placement
		for i := range infos {
			tr.Slots[i] = trace.NewSlot(&infos[i].Rec, i, f.cfg.Geom.SlotCluster(i), f.profiles[i])
		}
		return
	}
	f.materialize(tr, infos)
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

// noDefs is the last-definer table of an empty trace. Its int32 entries
// hold any slot index a trace can have (Config.Validate bounds a trace only
// by the machine's issue slots, so an int8 would overflow past 127).
var noDefs = func() (t [isa.NumRegs]int32) {
	for r := range t {
		t[r] = -1
	}
	return t
}()

// dataflow is the static intra-trace dependence analysis: one pass over the
// trace's retired records and their decoded operands. It fills and returns
// f.prods, for each slot the index of the nearest earlier slot writing each
// source (-1 if none; RS1's producer first), and fills f.consumers, whether
// a later slot reads the slot's destination before it is redefined. Both
// stay valid until the next trace.
func (f *FillUnit) dataflow(infos []RetireInfo) [][2]int32 {
	f.prods, f.consumers = f.prods[:len(infos)], f.consumers[:len(infos)]
	prods, consumers := f.prods, f.consumers
	clear(consumers)
	lastDef := noDefs
	for i := range infos {
		p := [2]int32{-1, -1}
		for k, r := range infos[i].Rec.Src {
			if r != isa.NoReg && lastDef[r] >= 0 {
				p[k] = lastDef[r]
				consumers[p[k]] = true
			}
		}
		prods[i] = p
		if d := infos[i].Rec.Dest; d != isa.NoReg {
			lastDef[d] = int32(i)
		}
	}
	return prods
}

// friendlyAssign implements the prior retire-time scheme: walk issue slots
// in slotOrder; for each slot, choose the oldest unplaced instruction with a
// static intra-trace input dependence on an instruction already assigned to
// that slot's cluster, else the oldest unplaced instruction. It operates on
// the current f.assigned/f.capacity state, so clusters already fixed by FDRT
// are respected and only unassigned instructions (-1) are placed.
func (f *FillUnit) friendlyAssign(slotOrder []int, prods [][2]int32) {
	g := f.cfg.Geom
	n := len(f.assigned)
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
func (f *FillUnit) fdrtAssign(infos []RetireInfo) {
	g := f.cfg.Geom
	n := len(infos)
	f.resetAssign(n)
	// Dynamic critical-producer identification maps commit sequence numbers
	// to logical indices. The infos are consecutive retired instructions, so
	// their Seqs are contiguous and the index is a subtraction (the equality
	// check below keeps this exact even if a stream ever produced gaps).
	seqBase := infos[0].Rec.Seq
	statics := f.dataflow(infos)

	for i := 0; i < n; i++ {
		// Critical intra-trace producer: the instruction's last-arriving
		// input was produced by an earlier instruction of this same trace,
		// and that producer has already been placed. When the dynamic
		// critical input was not intra-trace, the nearest static intra-trace
		// producer stands in (the fill unit always has the static analysis).
		prodCl := -1
		critIntra := false
		if inf := &infos[i]; inf.CritSrc != CritNone {
			if seq := inf.CritProducerSeq; seq >= seqBase && seq < seqBase+uint64(n) {
				if j := int(seq - seqBase); infos[j].Rec.Seq == seq && j < i && f.assigned[j] >= 0 {
					prodCl = f.assigned[j]
					critIntra = true
				}
			}
		}
		if prodCl < 0 {
			for _, j := range statics[i] {
				if j >= 0 && f.assigned[j] >= 0 {
					prodCl = f.assigned[j]
				}
			}
		}
		prof := f.profiles[i]
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
				f.profiles[i] = trace.Profile{}
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
				f.profiles[i] = trace.Profile{} // designation decays
			}
		case f.consumers[i]: // Option D
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
	f.friendlyAssign(f.natOrder, statics)
}

// materialize writes tr's slots, each once: its record's PC, instruction
// and direction, its profile, and the physical slot index of its assigned
// cluster. Instructions assigned to cluster c occupy slots c*W, c*W+1, ...
// in logical order, which preserves oldest-first selection within a
// cluster.
func (f *FillUnit) materialize(tr *trace.Trace, infos []RetireInfo) {
	g := f.cfg.Geom
	clear(f.nextSlot)
	for i := range infos {
		c := f.assigned[i]
		if c < 0 || c >= g.Clusters {
			panic(&InvariantError{Msg: fmt.Sprintf(
				"core: materialize called with incomplete assignment (slot %d -> cluster %d of %d)",
				i, c, g.Clusters)})
		}
		tr.Slots[i] = trace.NewSlot(&infos[i].Rec, c*g.Width+f.nextSlot[c], c, f.profiles[i])
		f.nextSlot[c]++
	}
}
