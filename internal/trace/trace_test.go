package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
)

func rec(pc uint64, inst isa.Inst, taken bool) *emu.Committed {
	return &emu.Committed{PC: pc, Inst: inst, Taken: taken}
}

func addInst(pc uint64) *emu.Committed {
	return rec(pc, isa.Inst{Op: isa.ADD, Ra: isa.R(1), Rb: isa.R(2), Rc: isa.R(3)}, false)
}

func brInst(pc uint64, taken bool) *emu.Committed {
	c := rec(pc, isa.Inst{Op: isa.BNE, Ra: isa.R(1), Imm: 0x900000, UseImm: true}, taken)
	if taken {
		c.NextPC = 0x900000 // forward target: does not trigger loop-closing termination
	} else {
		c.NextPC = pc + 4
	}
	return c
}

func TestBuilderBackwardTakenTermination(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	b.Add(addInst(0x2000))
	back := rec(0x2004, isa.Inst{Op: isa.BNE, Ra: isa.R(1), Imm: 0x2000, UseImm: true}, true)
	back.NextPC = 0x2000
	tr := b.Add(back)
	if tr == nil {
		t.Fatal("taken backward branch did not terminate the trace")
	}
	if tr.Len() != 2 {
		t.Errorf("trace length %d", tr.Len())
	}
	// A not-taken backward branch does not terminate.
	b2 := NewBuilder(DefaultConfig())
	nt := rec(0x2004, isa.Inst{Op: isa.BNE, Ra: isa.R(1), Imm: 0x2000, UseImm: true}, false)
	nt.NextPC = 0x2008
	if b2.Add(nt) != nil {
		t.Error("not-taken backward branch terminated the trace")
	}
}

func TestBuilderCapacityTermination(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	var tr *Trace
	for i := 0; i < 16; i++ {
		if tr = b.Add(addInst(0x1000 + uint64(i*4))); tr != nil && i != 15 {
			t.Fatalf("trace terminated early at %d", i)
		}
	}
	if tr == nil {
		t.Fatal("trace did not terminate at MaxLen")
	}
	if tr.Len() != 16 || tr.Blocks != 1 || tr.EndsIndirect {
		t.Errorf("trace: len=%d blocks=%d indirect=%v", tr.Len(), tr.Blocks, tr.EndsIndirect)
	}
	if tr.StartPC != 0x1000 {
		t.Errorf("StartPC = %#x", tr.StartPC)
	}
}

func TestBuilderThreeBlockTermination(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	pc := uint64(0x1000)
	var tr *Trace
	adds := 0
	for i := 0; i < 3; i++ { // three blocks: add, add, branch
		if tr = b.Add(addInst(pc)); tr != nil {
			t.Fatal("premature termination")
		}
		pc += 4
		adds++
		tr = b.Add(brInst(pc, i%2 == 0))
		pc += 4
		if i < 2 && tr != nil {
			t.Fatalf("terminated after branch %d", i+1)
		}
	}
	if tr == nil {
		t.Fatal("third branch did not terminate the trace")
	}
	if tr.Blocks != 3 || tr.Len() != 6 {
		t.Errorf("blocks=%d len=%d", tr.Blocks, tr.Len())
	}
	// The branches sit in slots 1, 3 and 5, the mask Lookup checks
	// against the predictor, with their embedded directions.
	const wantMask = 1<<1 | 1<<3 | 1<<5
	if mask, ok := tr.condMask(); !ok || mask != wantMask {
		t.Errorf("conditional-branch mask %#b (ok %v), want %#b", mask, ok, wantMask)
	}
	for i, want := range []bool{true, false, true} {
		if s := &tr.Slots[2*i+1]; s.Taken != want {
			t.Errorf("branch %d at slot %d: taken %v, want %v", i, 2*i+1, s.Taken, want)
		}
	}
}

func TestBuilderIndirectTermination(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	b.Add(addInst(0x1000))
	tr := b.Add(rec(0x1004, isa.Inst{Op: isa.RET, Rb: isa.RA}, true))
	if tr == nil || !tr.EndsIndirect {
		t.Fatal("indirect control did not terminate trace")
	}
}

func TestBuilderHaltTermination(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	tr := b.Add(rec(0x1000, isa.Inst{Op: isa.HALT}, false))
	if tr == nil {
		t.Fatal("HALT did not terminate trace")
	}
}

func TestBuilderFlush(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	b.Add(addInst(0x1000))
	b.Add(addInst(0x1004))
	tr := b.Flush()
	if tr == nil || tr.Len() != 2 {
		t.Fatal("Flush did not return partial trace")
	}
	if b.Pending() != 0 {
		t.Error("builder not empty after Flush")
	}
	if b.Flush() != nil {
		t.Error("empty Flush returned a trace")
	}
}

func TestCacheLookupPathAssociativity(t *testing.T) {
	c := NewCache(DefaultConfig())
	mk := func(taken bool) *Trace {
		b := NewBuilder(DefaultConfig())
		b.Add(addInst(0x1000))
		b.Add(brInst(0x1004, taken))
		b.Add(addInst(0x1008))
		return b.Flush()
	}
	c.Install(mk(true))
	c.Install(mk(false))
	predTaken := func(uint64) bool { return true }
	predNot := func(uint64) bool { return false }
	if tr := c.Lookup(0x1000, predTaken); tr == nil || !tr.Slots[1].Taken {
		t.Error("taken-path line not found")
	}
	if tr := c.Lookup(0x1000, predNot); tr == nil || tr.Slots[1].Taken {
		t.Error("not-taken-path line not found")
	}
	if c.S.Hits != 2 || c.S.Lookups != 2 {
		t.Errorf("stats %+v", c.S)
	}
}

func TestCacheMissOnWrongPath(t *testing.T) {
	c := NewCache(DefaultConfig())
	b := NewBuilder(DefaultConfig())
	b.Add(brInst(0x2000, true))
	c.Install(b.Flush())
	if c.Lookup(0x2000, func(uint64) bool { return false }) != nil {
		t.Error("hit despite prediction mismatch")
	}
	if c.Lookup(0x3000, func(uint64) bool { return true }) != nil {
		t.Error("hit on wrong start PC")
	}
}

func TestCacheSamePathUpdateKeepsFetchCount(t *testing.T) {
	c := NewCache(DefaultConfig())
	mk := func() *Trace {
		b := NewBuilder(DefaultConfig())
		b.Add(addInst(0x4000))
		b.Add(addInst(0x4004))
		return b.Flush()
	}
	c.Install(mk())
	tr := c.Lookup(0x4000, func(uint64) bool { return true })
	if tr == nil || tr.Fetches != 1 {
		t.Fatalf("fetches = %v", tr)
	}
	c.Install(mk())
	tr2 := c.Lookup(0x4000, func(uint64) bool { return true })
	if tr2.Fetches != 2 {
		t.Errorf("fetch count not preserved across update: %d", tr2.Fetches)
	}
	if c.S.Updated != 1 {
		t.Errorf("updated = %d", c.S.Updated)
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lines = 2 // 1 set x 2 ways
	cfg.Ways = 2
	c := NewCache(cfg)
	mk := func(pc uint64) *Trace {
		b := NewBuilder(cfg)
		b.Add(addInst(pc))
		return b.Flush()
	}
	// Same set requires (pc>>2) & 0 == 0: all PCs map to set 0.
	c.Install(mk(0x1000))
	c.Install(mk(0x2000))
	c.Lookup(0x1000, func(uint64) bool { return true }) // refresh 0x1000
	c.Install(mk(0x3000))                               // evicts 0x2000
	if c.Lookup(0x2000, func(uint64) bool { return true }) != nil {
		t.Error("LRU line survived")
	}
	if c.Lookup(0x1000, func(uint64) bool { return true }) == nil {
		t.Error("MRU line evicted")
	}
	if c.S.Evictions != 1 {
		t.Errorf("evictions = %d", c.S.Evictions)
	}
}

func TestSlotIndexIdentityAfterBuild(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	for i := 0; i < 4; i++ {
		b.Add(addInst(0x1000 + uint64(i*4)))
	}
	tr := b.Flush()
	tr.CheckSlotIndices(DefaultConfig().MaxLen)
	for i, s := range tr.Slots {
		if s.SlotIndex != i {
			t.Fatalf("slot %d has index %d, want identity", i, s.SlotIndex)
		}
	}
	// A physical reorder that keeps injectivity is accepted.
	tr.Slots[0].SlotIndex, tr.Slots[3].SlotIndex = 3, 0
	tr.CheckSlotIndices(DefaultConfig().MaxLen)
}

func TestCheckSlotIndicesPanicsOnCorruption(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	b.Add(addInst(0x1000))
	b.Add(addInst(0x1004))
	tr := b.Flush()
	tr.Slots[1].SlotIndex = 0 // duplicate slot position
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on corrupt slot placement")
		}
	}()
	tr.CheckSlotIndices(DefaultConfig().MaxLen)
}

// Property: for random instruction streams, traces never exceed MaxLen
// instructions or MaxBlocks blocks, and concatenating the produced traces
// reproduces the input stream in order.
func TestBuilderInvariantsQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(cfg)
		var stream []uint64
		var traces []*Trace
		pc := uint64(0x1000)
		for i := 0; i < 200; i++ {
			var c *emu.Committed
			switch r.Intn(10) {
			case 0:
				c = brInst(pc, r.Intn(2) == 0)
			case 1:
				c = rec(pc, isa.Inst{Op: isa.JMP, Rb: isa.R(5)}, true)
			default:
				c = addInst(pc)
			}
			stream = append(stream, pc)
			pc += 4
			if tr := b.Add(c); tr != nil {
				traces = append(traces, tr)
			}
		}
		if tr := b.Flush(); tr != nil {
			traces = append(traces, tr)
		}
		var replay []uint64
		for _, tr := range traces {
			if tr.Len() > cfg.MaxLen || tr.Blocks > cfg.MaxBlocks {
				return false
			}
			tr.CheckSlotIndices(cfg.MaxLen)
			for _, s := range tr.Slots {
				replay = append(replay, s.PC)
			}
		}
		if len(replay) != len(stream) {
			return false
		}
		for i := range replay {
			if replay[i] != stream[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(DefaultConfig())
	b := NewBuilder(DefaultConfig())
	b.Add(addInst(0x1000))
	c.Install(b.Flush())
	c.Reset()
	if c.Lookup(0x1000, func(uint64) bool { return true }) != nil {
		t.Error("line survived Reset")
	}
	if c.S.Lookups != 1 {
		t.Error("stats not reset before lookup count")
	}
}

func TestHitRate(t *testing.T) {
	s := Stats{Lookups: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("idle HitRate != 0")
	}
}

func TestBadCacheConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	NewCache(Config{Lines: 10, Ways: 3})
}

func TestProfileIsMember(t *testing.T) {
	if (Profile{}).IsMember() {
		t.Error("zero profile is a member")
	}
	if !(Profile{Role: RoleLeader, ChainCluster: 2}).IsMember() {
		t.Error("leader not a member")
	}
}

func TestDumpExposesLines(t *testing.T) {
	c := NewCache(DefaultConfig())
	b := NewBuilder(DefaultConfig())
	b.Add(addInst(0x1000))
	c.Install(b.Flush())
	found := 0
	for _, set := range c.Dump() {
		for _, tr := range set {
			if tr != nil {
				found++
			}
		}
	}
	if found != 1 {
		t.Errorf("Dump shows %d lines, want 1", found)
	}
}
