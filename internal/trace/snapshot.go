package trace

import (
	"ctcp/internal/snap"
)

// snapshotSlot / restoreSlot encode one instruction slot, including the
// per-instruction FDRT Profile fields — the feedback state that makes
// retire-time assignment reproducible mid-run.
func snapshotSlot(w *snap.Writer, s *Slot) {
	w.U64(s.PC)
	s.Inst.Snapshot(w)
	w.Bool(s.Taken)
	w.Int(s.SlotIndex)
	w.Int(s.Cluster)
	w.U8(s.Profile.Role)
	w.U8(s.Profile.ChainCluster)
}

func restoreSlot(r *snap.Reader, s *Slot) {
	s.PC = r.U64()
	s.Inst.Restore(r)
	s.Taken = r.Bool()
	s.SlotIndex = r.Int()
	s.Cluster = r.Int()
	s.Profile.Role = r.U8()
	s.Profile.ChainCluster = r.U8()
}

// snapshotTrace encodes one trace cache line.
func snapshotTrace(w *snap.Writer, t *Trace) {
	w.U64(t.StartPC)
	w.Int(len(t.Slots))
	for i := range t.Slots {
		snapshotSlot(w, &t.Slots[i])
	}
	w.Int(t.Blocks)
	w.Bool(t.EndsIndirect)
	w.U64(t.Fetches)
}

// restoreTrace decodes one trace cache line into a fresh Trace whose slot
// array is sized maxLen, matching what Builder.finish would have produced.
func restoreTrace(r *snap.Reader, maxLen int) *Trace {
	t := &Trace{StartPC: r.U64()}
	n := r.Int()
	if r.Err() != nil {
		return t
	}
	if n < 0 || n > maxLen {
		r.Failf("trace line has %d slots (max %d)", n, maxLen)
		return t
	}
	t.Slots = make([]Slot, n, maxLen)
	for i := range t.Slots {
		restoreSlot(r, &t.Slots[i])
	}
	t.Blocks = r.Int()
	t.EndsIndirect = r.Bool()
	t.Fetches = r.U64()
	return t
}

// Snapshot serializes the trace cache: geometry fingerprint, every line
// (including per-slot Profile feedback state), per-way LRU stamps, and the
// activity counters.
func (c *Cache) Snapshot(w *snap.Writer) {
	w.Begin("tracecache")
	w.Int(c.cfg.Lines)
	w.Int(c.cfg.Ways)
	w.Int(c.cfg.MaxLen)
	w.Int(c.cfg.MaxBlocks)
	w.Int(c.sets)
	for set := 0; set < c.sets; set++ {
		for way := 0; way < c.cfg.Ways; way++ {
			t := c.lines[set][way]
			w.Bool(t != nil)
			if t != nil {
				snapshotTrace(w, t)
			}
			w.U64(c.lru[set][way])
		}
	}
	w.U64(c.stamp)
	w.Counters(&c.S)
	w.End()
}

// Restore rebuilds the trace cache contents from r into a cache
// constructed with the same configuration. Restored lines are fresh
// allocations; the builder's recycling pools start empty after a restore
// and refill as lines are displaced.
func (c *Cache) Restore(r *snap.Reader) {
	r.Begin("tracecache")
	r.ExpectInt("trace cache lines", c.cfg.Lines)
	r.ExpectInt("trace cache ways", c.cfg.Ways)
	r.ExpectInt("trace cache max length", c.cfg.MaxLen)
	r.ExpectInt("trace cache max blocks", c.cfg.MaxBlocks)
	r.ExpectInt("trace cache sets", c.sets)
	if r.Err() != nil {
		return
	}
	for set := 0; set < c.sets; set++ {
		for way := 0; way < c.cfg.Ways; way++ {
			if r.Bool() {
				c.lines[set][way] = restoreTrace(r, c.cfg.MaxLen)
			} else {
				c.lines[set][way] = nil
			}
			c.lru[set][way] = r.U64()
			if r.Err() != nil {
				return
			}
		}
	}
	c.stamp = r.U64()
	r.Counters(&c.S)
	r.End()
}

// Snapshot serializes the trace under construction: the pending slots and
// block/terminator state. The recycled-line pools (reuse, free) are scratch
// and are excluded — after a restore they start empty and refill from
// Install displacements.
func (b *Builder) Snapshot(w *snap.Writer) {
	w.Begin("tracebuilder")
	w.Int(b.cfg.MaxLen)
	w.Int(b.cfg.MaxBlocks)
	w.Int(len(b.slots))
	for i := range b.slots {
		snapshotSlot(w, &b.slots[i])
	}
	w.Int(b.blocks)
	w.Bool(b.indirect)
	_ = b.reuse // scratch: recycled line storage, rebuilt empty on restore
	_ = b.free  // scratch: recycled line pool, rebuilt empty on restore
	w.End()
}

// Restore rebuilds the in-progress trace from r.
func (b *Builder) Restore(r *snap.Reader) {
	r.Begin("tracebuilder")
	r.ExpectInt("trace builder max length", b.cfg.MaxLen)
	r.ExpectInt("trace builder max blocks", b.cfg.MaxBlocks)
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > b.cfg.MaxLen {
		r.Failf("trace builder has %d pending slots (max %d)", n, b.cfg.MaxLen)
		return
	}
	if cap(b.slots) < b.cfg.MaxLen {
		b.slots = make([]Slot, 0, b.cfg.MaxLen)
	}
	b.slots = b.slots[:n]
	for i := range b.slots {
		restoreSlot(r, &b.slots[i])
	}
	b.blocks = r.Int()
	b.indirect = r.Bool()
	b.reuse = nil
	b.free = nil
	r.End()
}
