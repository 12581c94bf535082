package trace

import (
	"ctcp/internal/emu"
	"ctcp/internal/snap"
)

// Checkpoint codes the instruction's FDRT feedback fields.
func (p *Profile) Checkpoint(c *snap.Codec) {
	c.U8(&p.Role)
	c.U8(&p.ChainCluster)
}

// checkpoint codes one instruction slot, including the per-instruction FDRT
// Profile fields — the feedback state that makes retire-time assignment
// reproducible mid-run.
func (s *Slot) checkpoint(c *snap.Codec) {
	c.U64(&s.PC)
	s.Inst.Checkpoint(c)
	c.Bool(&s.Taken)
	c.Int(&s.SlotIndex)
	c.Int(&s.Cluster)
	s.Profile.Checkpoint(c)
}

// checkpointSlots codes a slot count and the slots. Decoding stores a fresh
// array of capacity maxLen, the size of the lines the fill unit builds;
// what names the slots' owner in the error for a count past maxLen.
func checkpointSlots(c *snap.Codec, slots *[]Slot, what string, maxLen int) {
	n := len(*slots)
	if c.Int(&n); c.Decoding() {
		if c.Err() == nil && (n < 0 || n > maxLen) {
			c.Failf("%s has %d slots (max %d)", what, n, maxLen)
		}
		if c.Err() != nil {
			return
		}
		*slots = make([]Slot, n, maxLen)
	}
	for i := range *slots {
		(*slots)[i].checkpoint(c)
	}
}

// checkpoint codes one trace cache line.
func (t *Trace) checkpoint(c *snap.Codec, maxLen int) {
	c.U64(&t.StartPC)
	checkpointSlots(c, &t.Slots, "trace line", maxLen)
	c.Int(&t.Blocks)
	c.Bool(&t.EndsIndirect)
	c.U64(&t.Fetches)
	// The conditional-branch mask is derived from the slots on the line's
	// first lookup: not coded, so a decoded line derives it again.
	_ = t.condBits
	_ = t.condKnown
}

// Checkpoint codes the trace cache: geometry fingerprint, every line
// (including per-slot Profile feedback state), per-way LRU stamps, and the
// activity counters. A decode target must be constructed with the same
// configuration. Decoded lines are fresh allocations; the fill unit's
// recycled-line pool refills as they are displaced.
func (c *Cache) Checkpoint(cd *snap.Codec) {
	cd.Begin("tracecache")
	cd.CheckInt("trace cache lines", c.cfg.Lines)
	cd.CheckInt("trace cache ways", c.cfg.Ways)
	cd.CheckInt("trace cache max length", c.cfg.MaxLen)
	cd.CheckInt("trace cache max blocks", c.cfg.MaxBlocks)
	cd.CheckInt("trace cache sets", c.sets)
	for set := 0; set < c.sets && cd.Err() == nil; set++ {
		for way := 0; way < c.cfg.Ways; way++ {
			// A presence bit, then the line when there is one.
			t := c.lines[set][way]
			present := t != nil
			if cd.Bool(&present); cd.Decoding() {
				t = nil
				if present {
					t = new(Trace)
				}
				c.lines[set][way] = t
			}
			if present {
				t.checkpoint(cd, c.cfg.MaxLen)
			}
			cd.U64(&c.lru[set][way])
		}
	}
	cd.U64(&c.stamp)
	cd.Counters(&c.S)
	cd.End()
}

// Checkpoint codes the trace under construction — its slots, block count
// and indirect flag, in the encoding of a builder that stored its slots —
// and returns that partial trace. This builder stores none, so encoding
// derives each slot from its retired record, rec(i) for slot i: PC,
// instruction and embedded direction from the record, identity SlotIndex,
// no cluster and no profile (the fill unit sets those only when the trace
// ends). The section precedes the trace's records in a checkpoint, so a
// decoder rebuilds the builder's state from them afterwards, by Replay.
func (b *Builder) Checkpoint(c *snap.Codec, rec func(i int) *emu.Committed) *Trace {
	c.Begin("tracebuilder")
	c.CheckInt("trace builder max length", b.cfg.MaxLen)
	c.CheckInt("trace builder max blocks", b.cfg.MaxBlocks)
	part := new(Trace)
	if !c.Decoding() {
		part.Slots, part.Blocks = make([]Slot, b.n), b.blocks
		for i := range part.Slots {
			part.Slots[i] = NewSlot(rec(i), i, 0, Profile{})
		}
	}
	checkpointSlots(c, &part.Slots, "trace builder", b.cfg.MaxLen)
	c.Int(&part.Blocks)
	c.Bool(&part.EndsIndirect) // indirect control ends its trace, so a partial one never ends indirect
	c.End()
	return part
}

// Replay rebuilds the builder's state by adding the records of a decoded
// partial trace, rec(i) for each of part's slots, and fails c unless part,
// as Checkpoint decoded it, is what Checkpoint encodes from those records:
// each slot derived from its record, the rules' block count, no indirect
// end, and no record that ends the trace.
func (b *Builder) Replay(c *snap.Codec, part *Trace, rec func(i int) *emu.Committed) {
	*b = NewBuilder(b.cfg)
	for i := range part.Slots {
		if want := NewSlot(rec(i), i, 0, Profile{}); part.Slots[i] != want {
			c.Failf("trace builder slot %d is %+v, but its record derives %+v", i, part.Slots[i], want)
			return
		}
		if b.Add(rec(i)) != 0 {
			c.Failf("pending record %d ends the trace under construction", i)
			return
		}
	}
	if part.Blocks != b.blocks || part.EndsIndirect {
		c.Failf("trace builder records %d blocks (indirect end %v); its records derive %d blocks and no indirect end",
			part.Blocks, part.EndsIndirect, b.blocks)
	}
}
