package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/isa"
	"ctcp/internal/prog"
)

// indirectProgram builds a dispatch loop whose jump target changes every
// iteration (defeats the BTB) vs. one whose target is constant.
func indirectProgram(alternating bool) *isa.Program {
	b := prog.New()
	b.Br("start")
	b.Label("h0")
	b.OpI(isa.ADD, isa.R(3), 1, isa.R(3))
	b.Br("next")
	b.Nop()
	b.Nop()
	b.Label("h1")
	b.OpI(isa.ADD, isa.R(3), 2, isa.R(3))
	b.Br("next")
	b.Nop()
	b.Nop()
	b.Label("start")
	b.Movi(isa.R(1), 2000)
	b.Movi(isa.R(5), int64(0))
	b.Label("loop")
	// target = h0 or h1
	b.Movi(isa.R(6), 0)
	if alternating {
		b.OpI(isa.AND, isa.R(1), 1, isa.R(6))
	}
	b.OpI(isa.SLL, isa.R(6), 4, isa.R(6)) // 4 insts * 4 bytes
	b.Movi(isa.R(7), int64(b.LabelAddr("h0")))
	b.Op3(isa.ADD, isa.R(7), isa.R(6), isa.R(7))
	b.Jmp(isa.R(7))
	b.Label("next")
	b.OpI(isa.SUB, isa.R(1), 1, isa.R(1))
	b.Branch(isa.BNE, isa.R(1), "loop")
	b.Halt()
	b.Entry("start")
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func TestIndirectMispredictsCostCycles(t *testing.T) {
	stable := RunProgram(indirectProgram(false), DefaultConfig())
	flaky := RunProgram(indirectProgram(true), DefaultConfig())
	if flaky.IndirectMiss <= stable.IndirectMiss {
		t.Errorf("alternating target misses %d <= stable %d", flaky.IndirectMiss, stable.IndirectMiss)
	}
	if flaky.Cycles <= stable.Cycles {
		t.Errorf("indirect mispredicts cost nothing: %d vs %d cycles", flaky.Cycles, stable.Cycles)
	}
}

func TestLoadWaitsForOlderStoreAddresses(t *testing.T) {
	// A load to a *different* address than a just-computed store still waits
	// for the store's address under conservative disambiguation; removing
	// the store speeds the loop up.
	build := func(withStore bool) *isa.Program {
		b := prog.New()
		b.Space("a", 64)
		b.Space("bb", 64)
		b.MoviAddr(isa.R(1), "a")
		b.MoviAddr(isa.R(2), "bb")
		b.Movi(isa.R(3), 2000)
		b.Label("loop")
		// Long-latency address computation for the store.
		b.OpI(isa.MUL, isa.R(3), 1, isa.R(4))
		b.OpI(isa.MUL, isa.R(4), 1, isa.R(4))
		b.OpI(isa.AND, isa.R(4), 56, isa.R(4))
		b.Op3(isa.ADD, isa.R(1), isa.R(4), isa.R(5))
		if withStore {
			b.Store(isa.STQ, isa.R(3), isa.R(5), 0)
		} else {
			b.Op3(isa.ADD, isa.R(5), isa.R(3), isa.R(28)) // same work, no store
		}
		b.Load(isa.LDQ, isa.R(6), isa.R(2), 0) // independent address
		b.Op3(isa.ADD, isa.R(6), isa.R(7), isa.R(7))
		b.OpI(isa.SUB, isa.R(3), 1, isa.R(3))
		b.Branch(isa.BNE, isa.R(3), "loop")
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	with := RunProgram(build(true), DefaultConfig())
	without := RunProgram(build(false), DefaultConfig())
	if with.Cycles <= without.Cycles {
		t.Errorf("conservative disambiguation has no cost: %d vs %d", with.Cycles, without.Cycles)
	}
}

func TestRingTopologyHelpsEndToEndForwarding(t *testing.T) {
	// Force cross-machine dependencies: with zero steering the slot-based
	// base puts a chain across clusters; ring reduces worst-case distance.
	cfg := DefaultConfig()
	ring := cfg
	ring.Geom.Topology = cluster.Ring
	chain := runStats(t, cfg, 1500)
	ringS := runStats(t, ring, 1500)
	if ringS.AvgFwdDistance() > chain.AvgFwdDistance()+0.001 {
		t.Errorf("ring increased mean forwarding distance: %.3f vs %.3f",
			ringS.AvgFwdDistance(), chain.AvgFwdDistance())
	}
	if ringS.Cycles > chain.Cycles {
		t.Errorf("ring slower than chain: %d vs %d", ringS.Cycles, chain.Cycles)
	}
}

func TestTwoClusterConfigRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geom.Clusters = 2
	cfg.FetchWidth = 8
	cfg.RetireWidth = 8
	cfg.Trace.MaxLen = 8
	for _, k := range []core.StrategyKind{core.Base, core.Friendly, core.FDRT, core.IssueTime} {
		c := cfg.WithStrategy(k, false)
		s := runStats(t, c, 600)
		if s.Retired == 0 {
			t.Fatalf("%v: no retirement on 2-cluster config", k)
		}
		// Forwarding distance on a 2-cluster machine is at most 1 hop.
		if s.AvgFwdDistance() > 1 {
			t.Errorf("%v: distance %.3f > 1 on two clusters", k, s.AvgFwdDistance())
		}
	}
}

func TestZeroIntraAndInterKnobsCompose(t *testing.T) {
	base := runStats(t, DefaultConfig(), 800)
	intra := DefaultConfig()
	intra.ZeroIntraTrace = true
	inter := DefaultConfig()
	inter.ZeroInterTrace = true
	both := DefaultConfig()
	both.ZeroIntraTrace, both.ZeroInterTrace = true, true
	all := DefaultConfig()
	all.ZeroAllFwdLat = true
	si, se := runStats(t, intra, 800), runStats(t, inter, 800)
	sb, sa := runStats(t, both, 800), runStats(t, all, 800)
	if si.Cycles > base.Cycles || se.Cycles > base.Cycles {
		t.Error("partial latency removal slowed execution")
	}
	// Removing both classes equals removing everything.
	if sb.Cycles != sa.Cycles {
		t.Errorf("intra+inter (%d cycles) != all (%d cycles)", sb.Cycles, sa.Cycles)
	}
}

func TestRetiredNeverExceedsFetchBudget(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.MaxInsts = uint64(500 + r.Intn(2000))
		strategies := []core.StrategyKind{core.Base, core.Friendly, core.FDRT, core.IssueTime}
		cfg = cfg.WithStrategy(strategies[r.Intn(len(strategies))], r.Intn(2) == 0)
		if r.Intn(2) == 0 {
			cfg.Geom.Topology = cluster.Ring
		}
		cfg.Geom.HopLat = 1 + r.Intn(3)
		s := RunProgram(loopProgram(100000), cfg)
		if s.Retired != cfg.MaxInsts {
			return false
		}
		// Conservation invariants under any configuration.
		if s.CritFromRF+s.CritFromRS1+s.CritFromRS2 != s.WithInputs {
			return false
		}
		if s.Fill.InstsBuilt != s.Retired {
			return false
		}
		return s.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestHopLatencyMonotonic(t *testing.T) {
	var prev int64
	for _, hop := range []int{0, 1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Geom.HopLat = hop
		s := runStats(t, cfg, 1000)
		if s.Cycles < prev {
			t.Errorf("hop=%d faster than smaller hop latency (%d < %d cycles)", hop, s.Cycles, prev)
		}
		prev = s.Cycles
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// A store burst with cold cache misses must trip the SB-full stall
	// counter when the buffer is tiny.
	b := prog.New()
	b.Space("big", 1<<21)
	b.MoviAddr(isa.R(1), "big")
	b.Movi(isa.R(2), 4000)
	b.Label("loop")
	b.Store(isa.STQ, isa.R(2), isa.R(1), 0)
	b.OpI(isa.ADD, isa.R(1), 64, isa.R(1)) // new line every store: all miss
	b.OpI(isa.SUB, isa.R(2), 1, isa.R(2))
	b.Branch(isa.BNE, isa.R(2), "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.StoreBuffer = 2
	s := RunProgram(p, cfg)
	if s.SBFullStalls == 0 {
		t.Error("tiny store buffer never filled")
	}
	big := DefaultConfig()
	big.StoreBuffer = 64
	s2 := RunProgram(p, big)
	if s2.Cycles >= s.Cycles {
		t.Errorf("larger store buffer not faster: %d vs %d", s2.Cycles, s.Cycles)
	}
}

func TestCallReturnPredictedByRAS(t *testing.T) {
	b := prog.New()
	b.Br("main")
	b.Label("leaf")
	b.OpI(isa.ADD, isa.R(3), 1, isa.R(3))
	b.Ret()
	b.Label("main")
	b.Movi(isa.R(1), 1500)
	b.Label("loop")
	b.Call("leaf", isa.R(9))
	b.OpI(isa.SUB, isa.R(1), 1, isa.R(1))
	b.Branch(isa.BNE, isa.R(1), "loop")
	b.Halt()
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := RunProgram(p, DefaultConfig())
	// Well-nested call/return mispredicts only during warmup.
	if s.IndirectMiss > 20 {
		t.Errorf("RAS failed: %d indirect mispredicts on nested calls", s.IndirectMiss)
	}
}

func TestIssueTimeRespectsPerClusterWidth(t *testing.T) {
	// Independent instruction soup: steering must not starve; all retire.
	cfg := DefaultConfig().WithStrategy(core.IssueTime, true)
	s := runStats(t, cfg, 2000)
	if s.Retired == 0 || s.IPC() <= 0.1 {
		t.Fatalf("issue-time steering stalled: IPC %.3f", s.IPC())
	}
}

func TestTraceProfilesSurviveFetchRetireCycle(t *testing.T) {
	// Under FDRT, chain designations must appear in retired-trace installs
	// (leaders+followers created > 0 on a loop-carried workload).
	cfg := DefaultConfig().WithStrategy(core.FDRT, false)
	s := runStats(t, cfg, 2000)
	if s.Fill.LeadersCreated == 0 {
		t.Error("no chain leaders on a loop-carried dependence workload")
	}
}
