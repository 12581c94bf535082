package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/snap"
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

// line builds the trace cache line holding recs in identity placement.
func line(recs ...*emu.Committed) *Trace {
	t := &Trace{StartPC: recs[0].PC}
	for i, r := range recs {
		t.Slots = append(t.Slots, NewSlot(r, i, 0, Profile{}))
	}
	return t
}

// backBr is a conditional branch at pc back to 0x2000.
func backBr(pc uint64, taken bool) *emu.Committed {
	c := rec(pc, isa.Inst{Op: isa.BNE, Ra: isa.R(1), Imm: 0x2000, UseImm: true}, taken)
	c.NextPC = pc + 4
	if taken {
		c.NextPC = 0x2000
	}
	return c
}

// TestBuilderTermination feeds each stream to a fresh builder: Add returns
// 0 until the record at index end, which ends the trace with blocks basic
// blocks (end -1: no record ends it, and blocks is the partial trace's).
func TestBuilderTermination(t *testing.T) {
	var capacity []*emu.Committed
	for i := 0; i < 16; i++ {
		capacity = append(capacity, addInst(0x1000+uint64(i*4)))
	}
	for _, tc := range []struct {
		name        string
		recs        []*emu.Committed
		end, blocks int
	}{
		{"backward-taken", []*emu.Committed{addInst(0x2000), backBr(0x2004, true)}, 1, 1},
		{"backward-not-taken", []*emu.Committed{backBr(0x2004, false)}, -1, 2},
		{"capacity", capacity, 15, 1},
		{"indirect", []*emu.Committed{addInst(0x1000), rec(0x1004, isa.Inst{Op: isa.RET, Rb: isa.RA}, true)}, 1, 1},
		{"halt", []*emu.Committed{rec(0x1000, isa.Inst{Op: isa.HALT}, false)}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(DefaultConfig())
			for i, r := range tc.recs {
				got, want := b.Add(r), 0
				if i == tc.end {
					want = tc.blocks
				}
				if got != want {
					t.Fatalf("Add of record %d returned %d, want %d", i, got, want)
				}
			}
			if tc.end < 0 && b.Blocks() != tc.blocks {
				t.Errorf("partial trace has %d blocks, want %d", b.Blocks(), tc.blocks)
			}
			if tc.end >= 0 && b.Blocks() != 0 {
				t.Errorf("the builder holds %d blocks after the trace ended, want 0", b.Blocks())
			}
		})
	}
}

func TestBuilderThreeBlockTermination(t *testing.T) {
	b := NewBuilder(DefaultConfig())
	pc := uint64(0x1000)
	var recs []*emu.Committed
	for i := 0; i < 3; i++ { // three blocks: add, add, branch
		recs = append(recs, addInst(pc), brInst(pc+4, i%2 == 0))
		pc += 8
	}
	for i, r := range recs {
		blocks := b.Add(r)
		if i < 5 && blocks != 0 {
			t.Fatalf("record %d ended the trace", i)
		}
		if i == 5 && blocks != 3 {
			t.Fatalf("third branch returned %d, want the trace's 3 blocks", blocks)
		}
	}
	// In the line, the branches sit in slots 1, 3 and 5, the mask Lookup
	// checks against the predictor, with their embedded directions.
	tr := line(recs...)
	const wantMask = 1<<1 | 1<<3 | 1<<5
	if mask, ok := tr.condMask(); !ok || mask != wantMask {
		t.Errorf("conditional-branch mask %#b (ok %v), want %#b", mask, ok, wantMask)
	}
	for i, want := range []bool{true, false, true} {
		if s := &tr.Slots[2*i+1]; s.Taken != want {
			t.Errorf("branch %d at slot %d: taken %v, want %v", i, 2*i+1, s.Taken, want)
		}
	}
	// Only conditional branches embed a direction.
	if s := NewSlot(rec(0x1000, isa.Inst{Op: isa.RET, Rb: isa.RA}, true), 0, 0, Profile{}); s.Taken {
		t.Error("a taken return embeds a direction")
	}
}

func TestCacheLookupPathAssociativity(t *testing.T) {
	c := NewCache(DefaultConfig())
	mk := func(taken bool) *Trace {
		return line(addInst(0x1000), brInst(0x1004, taken), addInst(0x1008))
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
	c.Install(line(brInst(0x2000, true)))
	if c.Lookup(0x2000, func(uint64) bool { return false }) != nil {
		t.Error("hit despite prediction mismatch")
	}
	if c.Lookup(0x3000, func(uint64) bool { return true }) != nil {
		t.Error("hit on wrong start PC")
	}
}

func TestCacheSamePathUpdateKeepsFetchCount(t *testing.T) {
	c := NewCache(DefaultConfig())
	mk := func() *Trace { return line(addInst(0x4000), addInst(0x4004)) }
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
	mk := func(pc uint64) *Trace { return line(addInst(pc)) }
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

// TestSlotIndexIdentityAfterBuild: the slots of a trace under construction,
// as the builder's checkpoint section records them, sit in identity
// placement; a physical reorder that keeps injectivity is accepted.
func TestSlotIndexIdentityAfterBuild(t *testing.T) {
	var recs []*emu.Committed
	for i := 0; i < 4; i++ {
		recs = append(recs, addInst(0x1000+uint64(i*4)))
	}
	tr, _ := roundTrip(t, recs)
	tr.CheckSlotIndices(DefaultConfig().MaxLen)
	for i, s := range tr.Slots {
		if s.SlotIndex != i {
			t.Fatalf("slot %d has index %d, want identity", i, s.SlotIndex)
		}
	}
	tr.Slots[0].SlotIndex, tr.Slots[3].SlotIndex = 3, 0
	tr.CheckSlotIndices(DefaultConfig().MaxLen)
}

func TestCheckSlotIndicesPanicsOnCorruption(t *testing.T) {
	tr := line(addInst(0x1000), addInst(0x1004))
	tr.Slots[1].SlotIndex = 0 // duplicate slot position
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on corrupt slot placement")
		}
	}()
	tr.CheckSlotIndices(DefaultConfig().MaxLen)
}

// endsByRule reports whether a record ends its trace by a rule other than
// the block limit and the length limit.
func endsByRule(c *emu.Committed) bool {
	return c.Inst.Op.Class() == isa.ClassJump || c.Inst.Op == isa.HALT ||
		(c.Inst.Op.Class().IsControl() && c.Taken && c.NextPC <= c.PC)
}

// Property: for random instruction streams, traces never exceed MaxLen
// instructions or MaxBlocks blocks, and each ends at the first record a
// rule ends it at: indirect control, a taken backward branch, the branch
// ending its MaxBlocks'th block, or its MaxLen'th instruction.
func TestBuilderInvariantsQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(cfg)
		n, branches := 0, 0
		pc := uint64(0x1000)
		for i := 0; i < 200; i++ {
			var c *emu.Committed
			switch r.Intn(10) {
			case 0:
				c = brInst(pc, r.Intn(2) == 0)
			case 1:
				c = backBr(pc, r.Intn(2) == 0)
			case 2:
				c = rec(pc, isa.Inst{Op: isa.JMP, Rb: isa.R(5)}, true)
			default:
				c = addInst(pc)
			}
			pc += 4
			n++
			if c.Inst.Op.Class().IsControl() {
				branches++
			}
			wantEnd := endsByRule(c) || n == cfg.MaxLen ||
				(c.Inst.Op.Class().IsControl() && branches == cfg.MaxBlocks)
			blocks := b.Add(c)
			if (blocks != 0) != wantEnd || blocks > cfg.MaxBlocks || n > cfg.MaxLen {
				return false
			}
			if wantEnd {
				n, branches = 0, 0
			}
		}
		return b.Blocks() <= cfg.MaxBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// roundTrip encodes a builder holding the partial trace recs and decodes
// the section, returning the partial trace it records and the reader.
func roundTrip(t *testing.T, recs []*emu.Committed) (*Trace, *snap.Reader) {
	t.Helper()
	b := NewBuilder(DefaultConfig())
	for _, c := range recs {
		if b.Add(c) != 0 {
			t.Fatalf("record @%#x ended the trace", c.PC)
		}
	}
	w := snap.NewWriter()
	b.Checkpoint(&w.Codec, func(i int) *emu.Committed { return recs[i] })
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	rb := NewBuilder(DefaultConfig())
	part := rb.Checkpoint(&r.Codec, nil)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return part, r
}

// TestBuilderSnapshotRestore: a partial trace's section restores to the
// slots its records derive, and Replay over the same records rebuilds the
// builder's state; records that derive other slots are refused.
func TestBuilderSnapshotRestore(t *testing.T) {
	recs := []*emu.Committed{addInst(0x1000), brInst(0x1004, true), addInst(0x1008)}
	part, r := roundTrip(t, recs)
	if len(part.Slots) != 3 || part.Blocks != 2 || part.EndsIndirect {
		t.Fatalf("restored %d slots, %d blocks, indirect %v; want 3, 2, false", len(part.Slots), part.Blocks, part.EndsIndirect)
	}
	for i, c := range recs {
		if want := NewSlot(c, i, 0, Profile{}); part.Slots[i] != want {
			t.Errorf("slot %d restored as %+v, want %+v", i, part.Slots[i], want)
		}
	}
	b := NewBuilder(DefaultConfig())
	b.Replay(&r.Codec, part, func(i int) *emu.Committed { return recs[i] })
	if err := r.Close(); err != nil {
		t.Fatalf("intact section refused: %v", err)
	}
	if b.Blocks() != 2 {
		t.Errorf("replayed builder holds %d blocks, want 2", b.Blocks())
	}
	// 13 more instructions fill the 16-slot trace, as they would the
	// uninterrupted builder's.
	for i := 0; i < 13; i++ {
		if got := b.Add(addInst(0x100c + uint64(4*i))); (got != 0) != (i == 12) {
			t.Fatalf("replayed builder: Add of instruction %d returned %d", 3+i, got)
		}
	}

	other := append([]*emu.Committed(nil), recs...)
	other[1] = brInst(0x1004, false)
	part, r = roundTrip(t, recs)
	b = NewBuilder(DefaultConfig())
	b.Replay(&r.Codec, part, func(i int) *emu.Committed { return other[i] })
	if r.Err() == nil {
		t.Error("a section whose slot disagrees with its record was accepted")
	}
}

// TestCacheSnapshotRestore: a restored cache holds the same lines, LRU
// stamps and counters, and re-encodes to the same bytes.
func TestCacheSnapshotRestore(t *testing.T) {
	c := NewCache(DefaultConfig())
	c.Install(line(addInst(0x1000), brInst(0x1004, true)))
	c.Install(line(addInst(0x2000)))
	c.Lookup(0x1000, func(uint64) bool { return true })
	encode := func(c *Cache) []byte {
		w := snap.NewWriter()
		c.Checkpoint(&w.Codec)
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := encode(c)
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	got := NewCache(DefaultConfig())
	got.Checkpoint(&r.Codec)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got.S != c.S || !bytes.Equal(encode(got), data) {
		t.Errorf("restored cache differs: stats %+v, want %+v", got.S, c.S)
	}
	if tr := got.Lookup(0x1000, func(uint64) bool { return true }); tr == nil || tr.Len() != 2 || !tr.Slots[1].Taken {
		t.Errorf("restored line @0x1000: %+v", tr)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(DefaultConfig())
	c.Install(line(addInst(0x1000)))
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
	c.Install(line(addInst(0x1000)))
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
