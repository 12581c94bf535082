package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ctcp/internal/cluster"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/snap"
	"ctcp/internal/trace"
)

func testConfig(k StrategyKind) Config {
	return Config{Strategy: k, Geom: cluster.DefaultGeometry(), Trace: trace.DefaultConfig()}
}

// inst builds a simple committed ALU instruction at pc writing rc and
// reading ra/rb.
func inst(seq, pc uint64, ra, rb, rc isa.Reg) emu.Committed {
	return decoded(emu.Committed{
		Seq: seq, PC: pc,
		Inst: isa.Inst{Op: isa.ADD, Ra: ra, Rb: rb, Rc: rc},
	})
}

// decoded returns c with its operands decoded, as the emulator hands
// records to the pipeline.
func decoded(c emu.Committed) emu.Committed {
	c.Decode()
	return c
}

// retireN feeds n independent single-block instructions (full trace at 16).
func retireN(f *FillUnit, n int, startPC uint64) {
	for i := 0; i < n; i++ {
		pc := startPC + uint64(i*4)
		f.Retire(&RetireInfo{Rec: inst(uint64(i), pc, isa.ZeroReg, isa.ZeroReg, isa.R(1+i%20))})
	}
}

func lookup(tc *trace.Cache, pc uint64) *trace.Trace {
	return tc.Lookup(pc, func(uint64) bool { return true })
}

func TestBaseIdentityPlacement(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(Base), tc)
	retireN(f, 16, 0x1000)
	tr := lookup(tc, 0x1000)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	for i, s := range tr.Slots {
		if s.SlotIndex != i || s.Cluster != i/4 {
			t.Fatalf("slot %d: index=%d cluster=%d", i, s.SlotIndex, s.Cluster)
		}
	}
}

func TestFriendlyPullsDependentToProducerCluster(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(Friendly), tc)
	// Logical stream: i0 writes r1; 14 independent fillers; i15 reads r1.
	// Base placement would put i15 in cluster 3, far from i0 in cluster 0.
	f.Retire(&RetireInfo{Rec: inst(0, 0x1000, isa.ZeroReg, isa.ZeroReg, isa.R(1))})
	for i := 1; i < 15; i++ {
		f.Retire(&RetireInfo{Rec: inst(uint64(i), 0x1000+uint64(i*4), isa.ZeroReg, isa.ZeroReg, isa.R(10+i%10))})
	}
	f.Retire(&RetireInfo{Rec: inst(15, 0x1000+60, isa.R(1), isa.ZeroReg, isa.R(2))})
	tr := lookup(tc, 0x1000)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	prodCl, consCl := tr.Slots[0].Cluster, tr.Slots[15].Cluster
	if prodCl != consCl {
		t.Errorf("friendly left dependent pair split: producer cluster %d consumer %d", prodCl, consCl)
	}
}

func TestFriendlyMiddleBiasesMiddleClusters(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FriendlyMiddle), tc)
	// 8 independent instructions: all should land in the two middle clusters.
	for i := 0; i < 8; i++ {
		f.Retire(&RetireInfo{Rec: inst(uint64(i), 0x1000+uint64(i*4), isa.ZeroReg, isa.ZeroReg, isa.R(1+i))})
	}
	f.Flush()
	tr := lookup(tc, 0x1000)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	for i, s := range tr.Slots {
		if s.Cluster != 1 && s.Cluster != 2 {
			t.Errorf("instruction %d landed in end cluster %d", i, s.Cluster)
		}
	}
}

// fdrtRetire feeds a 2-instruction trace (producer, consumer) where the
// consumer's critical input is the producer, with controllable trace
// boundary and forwarding flags.
func fdrtRetire(f *FillUnit, seq *uint64, pc uint64, interTrace bool, prodCluster int) {
	prodSeq := *seq
	f.Retire(&RetireInfo{
		Rec:     inst(prodSeq, pc, isa.ZeroReg, isa.ZeroReg, isa.R(1)),
		Cluster: prodCluster,
	})
	*seq++
	f.Retire(&RetireInfo{
		Rec:                 inst(*seq, pc+4, isa.R(1), isa.ZeroReg, isa.R(2)),
		Cluster:             prodCluster,
		CritSrc:             CritRS1,
		CritForwarded:       true,
		CritProducerPC:      pc,
		CritProducerSeq:     prodSeq,
		CritProducerCluster: prodCluster,
		CritInterTrace:      interTrace,
	})
	*seq++
}

func TestChainLeaderAndFollowerCreation(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	var seq uint64
	// First occurrence designates the producer a leader; the consumer joins
	// as a follower on the second occurrence (staged growth per Table 4).
	fdrtRetire(f, &seq, 0x2000, true, 3)
	fdrtRetire(f, &seq, 0x2000, true, 3)
	f.Flush()
	// The designations are written into the installed trace line's slots.
	tr := lookup(tc, 0x2000)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	prodProf := tr.Slots[0].Profile
	consProf := tr.Slots[1].Profile
	if prodProf.Role != trace.RoleLeader || prodProf.ChainCluster != 3 {
		t.Errorf("producer profile = %+v, want leader@3", prodProf)
	}
	if consProf.Role != trace.RoleFollower || consProf.ChainCluster != 3 {
		t.Errorf("consumer profile = %+v, want follower@3", consProf)
	}
	if f.S.LeadersCreated != 1 || f.S.FollowersCreated != 1 {
		t.Errorf("chain stats: leaders=%d followers=%d", f.S.LeadersCreated, f.S.FollowersCreated)
	}
	// Pending designations were consumed into the line.
	if f.Chains().Has(0x2000) || f.Chains().Has(0x2004) {
		t.Error("pending designations not consumed by trace construction")
	}
}

func TestIntraTraceDependenceDoesNotChain(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	var seq uint64
	fdrtRetire(f, &seq, 0x2000, false /* intra-trace */, 2)
	f.Flush()
	if f.Chains().Get(0x2000).IsMember() || f.Chains().Get(0x2004).IsMember() {
		t.Error("intra-trace dependence created a chain")
	}
}

func TestPinningKeepsChainCluster(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	var seq uint64
	fdrtRetire(f, &seq, 0x2000, true, 3)
	// Same instructions execute again on a different cluster while the
	// designation is still pending: pinning keeps cluster 3.
	fdrtRetire(f, &seq, 0x2000, true, 0)
	f.Flush()
	tr := lookup(tc, 0x2000)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	if got := tr.Slots[0].Profile; got.Role != trace.RoleLeader || got.ChainCluster != 3 {
		t.Errorf("pinned leader profile = %+v, want leader@3", got)
	}
}

func TestNoPinningFollowsLatestCluster(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRTNoPin), tc)
	var seq uint64
	fdrtRetire(f, &seq, 0x2000, true, 3)
	fdrtRetire(f, &seq, 0x2000, true, 0)
	f.Flush()
	tr := lookup(tc, 0x2000)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	if got := tr.Slots[0].Profile; got.ChainCluster != 0 {
		t.Errorf("unpinned leader profile = %+v, want cluster 0", got)
	}
}

func TestChainBitsDecayWhenNotCarried(t *testing.T) {
	// An instruction whose trace-line bits were lost (icache fetch / line
	// eviction) and which receives no fresh designation loses membership in
	// the rebuilt line.
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	f.Retire(&RetireInfo{Rec: inst(0, 0x2100, isa.ZeroReg, isa.ZeroReg, isa.R(1))}) // no carried bits
	f.Flush()
	tr := lookup(tc, 0x2100)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	if tr.Slots[0].Profile.IsMember() {
		t.Error("membership survived without carried bits or pending designation")
	}
}

func TestCarriedBitsPropagateToNewLine(t *testing.T) {
	// An instruction fetched with chain bits keeps them in the rebuilt line.
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	prof := trace.Profile{Role: trace.RoleFollower, ChainCluster: 2}
	f.Retire(&RetireInfo{
		Rec:     inst(0, 0x2200, isa.ZeroReg, isa.ZeroReg, isa.R(1)),
		Profile: prof,
		FromTC:  true,
	})
	f.Flush()
	tr := lookup(tc, 0x2200)
	if tr == nil {
		t.Fatal("trace not installed")
	}
	if tr.Slots[0].Profile != prof {
		t.Errorf("carried profile %+v not propagated, got %+v", prof, tr.Slots[0].Profile)
	}
	if tr.Slots[0].Cluster != 2 {
		t.Errorf("chain member placed on cluster %d, want 2", tr.Slots[0].Cluster)
	}
}

func TestFDRTOptionBPlacesChainMemberOnChainCluster(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	cfg := testConfig(FDRT)
	f := NewFillUnit(cfg, tc)
	// Pre-establish a chain: pc 0x3000 is a follower pinned to cluster 2.
	f.Chains().Set(0x3000, trace.Profile{Role: trace.RoleFollower, ChainCluster: 2})
	f.Retire(&RetireInfo{Rec: inst(0, 0x3000, isa.ZeroReg, isa.ZeroReg, isa.R(1))})
	f.Flush()
	tr := lookup(tc, 0x3000)
	if tr == nil {
		t.Fatal("trace missing")
	}
	if tr.Slots[0].Cluster != 2 {
		t.Errorf("chain member placed on cluster %d, want 2", tr.Slots[0].Cluster)
	}
	if f.S.OptionB != 1 {
		t.Errorf("OptionB count = %d", f.S.OptionB)
	}
}

func TestFDRTOptionAPlacesConsumerWithProducer(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	// Producer (no deps, has consumer -> option D, middle cluster), consumer
	// with critical intra-trace dep -> option A, same cluster as producer.
	f.Retire(&RetireInfo{Rec: inst(0, 0x4000, isa.ZeroReg, isa.ZeroReg, isa.R(1))})
	f.Retire(&RetireInfo{
		Rec:             inst(1, 0x4004, isa.R(1), isa.ZeroReg, isa.R(2)),
		CritSrc:         CritRS1,
		CritForwarded:   true,
		CritProducerPC:  0x4000,
		CritProducerSeq: 0,
	})
	f.Flush()
	tr := lookup(tc, 0x4000)
	if tr == nil {
		t.Fatal("trace missing")
	}
	if tr.Slots[0].Cluster != tr.Slots[1].Cluster {
		t.Errorf("A-option pair split: %d vs %d", tr.Slots[0].Cluster, tr.Slots[1].Cluster)
	}
	if c := tr.Slots[0].Cluster; c != 1 && c != 2 {
		t.Errorf("D-option producer not in middle cluster: %d", c)
	}
	if f.S.OptionD != 1 || f.S.OptionA != 1 {
		t.Errorf("option counts: %+v", f.S)
	}
}

func TestFDRTOptionCAdaptivePrecedence(t *testing.T) {
	// Option C (chain member with an intra-trace producer) is arbitrated by
	// the observed critical input: an intra-trace critical input pulls the
	// instruction to its producer; an inter-trace one to its chain cluster.
	run := func(critProducerSeq uint64) *trace.Trace {
		tc := trace.NewCache(trace.DefaultConfig())
		f := NewFillUnit(testConfig(FDRT), tc)
		f.Chains().Set(0x5004, trace.Profile{Role: trace.RoleFollower, ChainCluster: 3})
		f.Retire(&RetireInfo{Rec: inst(0, 0x5000, isa.ZeroReg, isa.ZeroReg, isa.R(1))})
		f.Retire(&RetireInfo{
			Rec:             inst(1, 0x5004, isa.R(1), isa.ZeroReg, isa.R(2)),
			CritSrc:         CritRS1,
			CritForwarded:   true,
			CritProducerPC:  0x5000,
			CritProducerSeq: critProducerSeq,
		})
		f.Flush()
		if f.S.OptionC != 1 {
			t.Fatalf("OptionC = %d", f.S.OptionC)
		}
		return lookup(tc, 0x5000)
	}
	// Critical producer is instruction 0 of this trace (intra): follow it.
	tr := run(0)
	if tr.Slots[1].Cluster != tr.Slots[0].Cluster {
		t.Errorf("intra-critical option C split pair: %d vs %d",
			tr.Slots[1].Cluster, tr.Slots[0].Cluster)
	}
	// Critical producer is an out-of-trace instance (inter): follow chain.
	tr = run(999)
	if tr.Slots[1].Cluster != 3 {
		t.Errorf("inter-critical option C placed on %d, want chain cluster 3",
			tr.Slots[1].Cluster)
	}
}

func TestFDRTOptionEInstructionsFallBack(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	// Instruction with no deps, no consumers, no chain: option E.
	f.Retire(&RetireInfo{Rec: decoded(emu.Committed{Seq: 0, PC: 0x6000, Inst: isa.Inst{Op: isa.OUT, Ra: isa.R(9)}})})
	f.Flush()
	if f.S.OptionE != 1 {
		t.Errorf("OptionE = %d", f.S.OptionE)
	}
	tr := lookup(tc, 0x6000)
	if tr == nil || tr.Slots[0].Cluster < 0 || tr.Slots[0].Cluster > 3 {
		t.Fatal("option-E instruction not placed by fallback")
	}
}

func TestFDRTCapacityRespected(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	// 16 chain members all pinned to cluster 1: only 4 fit; 4 go to
	// neighbors; the rest are skipped then fall back.
	for i := 0; i < 16; i++ {
		pc := uint64(0x7000 + i*4)
		f.Chains().Set(pc, trace.Profile{Role: trace.RoleFollower, ChainCluster: 1})
		f.Retire(&RetireInfo{Rec: inst(uint64(i), pc, isa.ZeroReg, isa.ZeroReg, isa.R(1+i%8))})
	}
	tr := lookup(tc, 0x7000)
	if tr == nil {
		t.Fatal("trace missing")
	}
	counts := map[int]int{}
	for _, s := range tr.Slots {
		counts[s.Cluster]++
	}
	for c, n := range counts {
		if n > 4 {
			t.Errorf("cluster %d has %d instructions (capacity 4)", c, n)
		}
	}
	if counts[1] != 4 {
		t.Errorf("chain cluster 1 not filled: %d", counts[1])
	}
	if f.S.Skipped == 0 {
		t.Error("expected some skipped assignments")
	}
}

// TestFillUnitFlush: a line's header comes from its records and the rules'
// block count — a full line of 16 ALU instructions, a line ended by an
// indirect jump — and Flush installs the partial trace, empties the
// pending buffer, and builds nothing more when called again.
func TestFillUnitFlush(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(Base), tc)
	retireN(f, 16, 0x1000)
	if tr := lookup(tc, 0x1000); tr == nil || tr.StartPC != 0x1000 || tr.Len() != 16 || tr.Blocks != 1 || tr.EndsIndirect {
		t.Fatalf("full line: %+v", tr)
	}
	f.Retire(&RetireInfo{Rec: inst(16, 0x3000, isa.ZeroReg, isa.ZeroReg, isa.R(1))})
	f.Retire(&RetireInfo{Rec: decoded(emu.Committed{Seq: 17, PC: 0x3004, Inst: isa.Inst{Op: isa.JMP, Ra: isa.R(7)}, Taken: true, NextPC: 0x1000})})
	if tr := lookup(tc, 0x3000); tr == nil || tr.Len() != 2 || tr.Blocks != 1 || !tr.EndsIndirect {
		t.Fatalf("line ended by an indirect jump: %+v", tr)
	}
	f.Retire(&RetireInfo{Rec: inst(18, 0x4000, isa.ZeroReg, isa.ZeroReg, isa.R(1))})
	f.Retire(&RetireInfo{Rec: inst(19, 0x4004, isa.ZeroReg, isa.ZeroReg, isa.R(2))})
	if lookup(tc, 0x4000) != nil {
		t.Fatal("a partial trace was installed before Flush")
	}
	f.Flush()
	if tr := lookup(tc, 0x4000); tr == nil || tr.Len() != 2 || tr.Blocks != 1 || tr.EndsIndirect {
		t.Fatalf("Flush did not install the partial trace: %+v", tr)
	}
	if len(f.pending) != 0 || f.builder.Blocks() != 0 {
		t.Errorf("fill unit holds %d records and %d blocks after Flush", len(f.pending), f.builder.Blocks())
	}
	built := f.S.TracesBuilt
	if f.Flush(); f.S.TracesBuilt != built {
		t.Error("an empty Flush built a trace")
	}
}

// Property: for random instruction streams under every strategy, the lines
// the fill unit installs never exceed MaxLen instructions or MaxBlocks
// blocks, place their slots injectively, and, concatenated in order,
// reproduce the retired stream.
func TestFillUnitLinesReplayStreamQuick(t *testing.T) {
	cfg := trace.DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, k := range Strategies() {
			// Start PCs rise by at least 4 over 200 instructions, so every
			// line keeps its own set of the 512 and none is displaced.
			tc := trace.NewCache(cfg)
			fu := NewFillUnit(testConfig(k), tc)
			var stream []uint64
			pc := uint64(0x1000)
			for i := 0; i < 200; i++ {
				c := inst(uint64(i), pc, isa.ZeroReg, isa.ZeroReg, isa.R(1+i%8))
				switch r.Intn(10) {
				case 0:
					taken := r.Intn(2) == 0
					c = decoded(emu.Committed{Seq: uint64(i), PC: pc, Inst: isa.Inst{Op: isa.BNE, Ra: isa.R(1), Imm: 0x900000, UseImm: true}, Taken: taken, NextPC: pc + 4})
					if taken {
						c.NextPC = 0x900000
					}
				case 1:
					c = decoded(emu.Committed{Seq: uint64(i), PC: pc, Inst: isa.Inst{Op: isa.JMP, Ra: isa.R(5)}, Taken: true, NextPC: pc + 4})
				}
				stream = append(stream, pc)
				pc += 4
				fu.Retire(&RetireInfo{Rec: c})
			}
			fu.Flush()
			var lines []*trace.Trace
			for _, set := range tc.Dump() {
				for _, tr := range set {
					if tr != nil {
						lines = append(lines, tr)
					}
				}
			}
			sort.Slice(lines, func(i, j int) bool { return lines[i].StartPC < lines[j].StartPC })
			var replay []uint64
			for _, tr := range lines {
				if tr.Len() > cfg.MaxLen || tr.Blocks < 1 || tr.Blocks > cfg.MaxBlocks {
					return false
				}
				tr.CheckSlotIndices(testConfig(k).Geom.TotalWidth())
				for _, s := range tr.Slots {
					replay = append(replay, s.PC)
				}
			}
			if !slices.Equal(replay, stream) || uint64(len(lines)) != fu.S.TracesBuilt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMigrationStats(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(Base), tc)
	// Same 4 PCs twice: base assignment is deterministic, so no migration.
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			f.Retire(&RetireInfo{Rec: inst(uint64(round*4+i), uint64(0x8000+i*4), isa.ZeroReg, isa.ZeroReg, isa.R(1+i))})
		}
		f.Flush()
	}
	if f.S.Seen != 4 || f.S.Migrated != 0 {
		t.Errorf("migration stats: %+v", f.S)
	}
	if f.S.MigrationRate() != 0 {
		t.Error("migration rate nonzero for stable assignment")
	}
}

func TestChainProfileEvictionBound(t *testing.T) {
	cp := NewChainProfile(8)
	for i := 0; i < 100; i++ {
		cp.Set(uint64(i*4), trace.Profile{Role: trace.RoleLeader, ChainCluster: 1})
	}
	if cp.Len() > 8 {
		t.Errorf("table grew to %d entries (cap 8)", cp.Len())
	}
	// The most recent entry must survive.
	if !cp.Get(99 * 4).IsMember() {
		t.Error("most recent entry evicted")
	}
	cp.Reset()
	if cp.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

// TestChainProfileEvictionMatchesRestore: eviction order is the order of
// current designations, the order Checkpoint encodes, so a table decoded
// mid-run evicts exactly what the uninterrupted one does. A's first
// designation was taken; its second is younger than B's.
func TestChainProfileEvictionMatchesRestore(t *testing.T) {
	const a, b, c = 0x100, 0x200, 0x300
	leader := trace.Profile{Role: trace.RoleLeader, ChainCluster: 1}
	live := NewChainProfile(2)
	live.Set(a, leader)
	live.Take(a)
	live.Set(b, leader)
	live.Set(a, leader)

	w := snap.NewWriter()
	live.Checkpoint(&w.Codec)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewChainProfile(2)
	restored.Checkpoint(&r.Codec)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cp   *ChainProfile
	}{{"live", live}, {"restored", restored}} {
		tc.cp.Set(c, leader)
		if tc.cp.Has(b) || !tc.cp.Has(a) || !tc.cp.Has(c) || tc.cp.Len() != 2 {
			t.Errorf("%s table after Set C: a=%v b=%v c=%v len=%d, want B evicted",
				tc.name, tc.cp.Has(a), tc.cp.Has(b), tc.cp.Has(c), tc.cp.Len())
		}
	}
}

// TestChainProfileOrderBounded: designations that are taken before the
// table fills leave stale FIFO references behind; compaction keeps them
// within a constant of the live population however long the run.
func TestChainProfileOrderBounded(t *testing.T) {
	cp := NewChainProfile(1 << 16)
	p := trace.Profile{Role: trace.RoleFollower, ChainCluster: 3}
	for i := 0; i < 1_000_000; i++ {
		pc := uint64(i%8) * 4
		cp.Set(pc, p)
		if _, ok := cp.Take(pc); !ok {
			t.Fatalf("pair %d: Take(%#x) found nothing", i, pc)
		}
		if len(cp.order) > 2*cp.Len()+orderSlack {
			t.Fatalf("pair %d: order holds %d references for %d live entries", i, len(cp.order), cp.Len())
		}
	}
}

// TestChainProfileSteadyStateAllocs: once the table and its FIFO order have
// reached their bound, eviction, Take and order compaction reuse the same
// storage, and so does a Reset.
func TestChainProfileSteadyStateAllocs(t *testing.T) {
	cp := NewChainProfile(8)
	pc := uint64(0)
	set := func() {
		cp.Set(pc%(64*4), trace.Profile{Role: trace.RoleFollower, ChainCluster: 2})
		pc += 4
	}
	// setTake designates a PC and consumes an older one, the fill unit's
	// pattern: most designations are taken, not evicted.
	setTake := func() {
		set()
		cp.Take((pc - 12) % (64 * 4))
	}
	// Each measured run repeats the operation many times: AllocsPerRun
	// divides by its run count in integer arithmetic, which would average a
	// slice doubling every few thousand calls down to zero.
	const calls = 10_000
	repeat := func(f func()) func() {
		return func() {
			for i := 0; i < calls; i++ {
				f()
			}
		}
	}
	for i := 0; i < 100; i++ {
		set()
		setTake()
	}
	if allocs := testing.AllocsPerRun(1, repeat(set)); allocs != 0 {
		t.Errorf("%d steady-state Sets allocated %.0f times, want 0", calls, allocs)
	}
	if allocs := testing.AllocsPerRun(1, repeat(setTake)); allocs != 0 {
		t.Errorf("%d steady-state Set and Take pairs allocated %.0f times, want 0", calls, allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { cp.Reset(); set() }); allocs != 0 {
		t.Errorf("Reset then Set allocated %.2f times, want 0", allocs)
	}
	if cp.Len() != 1 {
		t.Errorf("after Reset and one Set the table holds %d entries, want 1", cp.Len())
	}
}

func TestChainProfileUpdateInPlace(t *testing.T) {
	cp := NewChainProfile(4)
	cp.Set(0x100, trace.Profile{Role: trace.RoleLeader, ChainCluster: 1})
	cp.Set(0x100, trace.Profile{Role: trace.RoleLeader, ChainCluster: 2})
	if cp.Len() != 1 || cp.Get(0x100).ChainCluster != 2 {
		t.Error("in-place update failed")
	}
}

func TestStrategyPredicates(t *testing.T) {
	if Base.ReordersAtRetire() || IssueTime.ReordersAtRetire() {
		t.Error("base/issue-time must not reorder")
	}
	if !Friendly.ReordersAtRetire() || !FDRT.ReordersAtRetire() {
		t.Error("retire-time strategies must reorder")
	}
	if !IssueTime.SteersAtIssue() || FDRT.SteersAtIssue() {
		t.Error("steering predicate wrong")
	}
	if !FDRT.UsesChains() || !FDRTNoPin.UsesChains() || Friendly.UsesChains() {
		t.Error("chain predicate wrong")
	}
	if !FDRT.Pins() || FDRTNoPin.Pins() {
		t.Error("pinning predicate wrong")
	}
	for k := Base; k <= FDRTNoPin; k++ {
		if k.String() == "unknown" {
			t.Errorf("strategy %d has no name", k)
		}
	}
}

// Property: every strategy produces a valid physical placement — injective
// slot indices, per-cluster occupancy within width — for random traces.
func TestAssignmentValidityQuick(t *testing.T) {
	strategies := []StrategyKind{Base, Friendly, FriendlyMiddle, FDRT, FDRTNoPin}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, k := range strategies {
			tc := trace.NewCache(trace.DefaultConfig())
			fu := NewFillUnit(testConfig(k), tc)
			n := 1 + r.Intn(16)
			for i := 0; i < n; i++ {
				pc := uint64(0x9000 + i*4)
				if r.Intn(3) == 0 {
					fu.Chains().Set(pc, trace.Profile{
						Role:         trace.RoleFollower,
						ChainCluster: uint8(r.Intn(4)),
					})
				}
				ra, rb := isa.ZeroReg, isa.ZeroReg
				if i > 0 && r.Intn(2) == 0 {
					ra = isa.R(1 + r.Intn(8))
				}
				info := RetireInfo{Rec: inst(uint64(i), pc, ra, rb, isa.R(1+r.Intn(8)))}
				if i > 0 && r.Intn(2) == 0 {
					info.CritSrc = CritRS1
					info.CritForwarded = true
					info.CritProducerSeq = uint64(r.Intn(i))
					info.CritProducerPC = uint64(0x9000 + int(info.CritProducerSeq)*4)
					info.CritInterTrace = r.Intn(3) == 0
					info.CritProducerCluster = r.Intn(4)
				}
				fu.Retire(&info)
			}
			fu.Flush()
			tr := lookup(tc, 0x9000)
			if tr == nil {
				return false
			}
			tr.CheckSlotIndices(16) // panics on corruption
			counts := map[int]int{}
			for _, s := range tr.Slots {
				if s.Cluster != s.SlotIndex/4 {
					return false
				}
				counts[s.Cluster]++
			}
			for _, c := range counts {
				if c > 4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFillStatsRates(t *testing.T) {
	s := FillStats{Seen: 10, Migrated: 3, ChainSeen: 4, ChainMigrated: 1}
	if s.MigrationRate() != 0.3 {
		t.Errorf("MigrationRate = %v", s.MigrationRate())
	}
	if s.ChainMigrationRate() != 0.25 {
		t.Errorf("ChainMigrationRate = %v", s.ChainMigrationRate())
	}
	var zero FillStats
	if zero.MigrationRate() != 0 || zero.ChainMigrationRate() != 0 {
		t.Error("zero-stat rates nonzero")
	}
}

func TestTraceProfilesRefreshedOnInstall(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	f.Chains().Set(0xA000, trace.Profile{Role: trace.RoleLeader, ChainCluster: 1})
	f.Retire(&RetireInfo{Rec: inst(0, 0xA000, isa.ZeroReg, isa.ZeroReg, isa.R(1))})
	f.Flush()
	tr := lookup(tc, 0xA000)
	if tr.Slots[0].Profile.Role != trace.RoleLeader {
		t.Error("installed trace does not carry chain profile")
	}
}

func ExampleStrategyKind_String() {
	fmt.Println(FDRT, Friendly, Base)
	// Output: fdrt friendly base
}
