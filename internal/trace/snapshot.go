package trace

import (
	"ctcp/internal/emu"
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

// restoreSlots decodes a slot count and that many slots into a fresh array
// of capacity maxLen, the size of the lines the fill unit builds; what names
// the slots' owner in the error for a count past maxLen.
func restoreSlots(r *snap.Reader, what string, maxLen int) []Slot {
	n := r.Int()
	if r.Err() == nil && (n < 0 || n > maxLen) {
		r.Failf("%s has %d slots (max %d)", what, n, maxLen)
	}
	if r.Err() != nil {
		return nil
	}
	slots := make([]Slot, n, maxLen)
	for i := range slots {
		restoreSlot(r, &slots[i])
	}
	return slots
}

// restoreTrace decodes one trace cache line into a fresh Trace.
func restoreTrace(r *snap.Reader, maxLen int) *Trace {
	t := &Trace{StartPC: r.U64()}
	t.Slots = restoreSlots(r, "trace line", maxLen)
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
// allocations; the fill unit's recycled-line pool refills as they are
// displaced.
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

// Snapshot serializes the trace under construction: its slots, block count
// and indirect flag, in the encoding of a builder that stored its slots.
// This builder stores none, so each slot is derived from its retired record,
// rec(i) for slot i: PC, instruction and embedded direction from the
// record, identity SlotIndex, no cluster and no profile (the fill unit sets
// those only when the trace ends). The builder's own state is derived from
// the same records on restore (ReadSnapshot, then Replay).
func (b *Builder) Snapshot(w *snap.Writer, rec func(i int) *emu.Committed) {
	w.Begin("tracebuilder")
	w.Int(b.cfg.MaxLen)
	w.Int(b.cfg.MaxBlocks)
	w.Int(b.n)
	for i := 0; i < b.n; i++ {
		s := NewSlot(rec(i), i, 0, Profile{})
		snapshotSlot(w, &s)
	}
	w.Int(b.blocks)
	w.Bool(false) // indirect control ends its trace, so a partial one never ends indirect
	w.End()
}

// ReadSnapshot reads the section Snapshot writes and returns the partial
// trace it records (Slots, Blocks, EndsIndirect). The section precedes the
// trace's records in a checkpoint, so the builder's state is rebuilt from
// them afterwards, by Replay.
func (b *Builder) ReadSnapshot(r *snap.Reader) *Trace {
	r.Begin("tracebuilder")
	r.ExpectInt("trace builder max length", b.cfg.MaxLen)
	r.ExpectInt("trace builder max blocks", b.cfg.MaxBlocks)
	part := &Trace{Slots: restoreSlots(r, "trace builder", b.cfg.MaxLen)}
	part.Blocks = r.Int()
	part.EndsIndirect = r.Bool()
	r.End()
	return part
}

// Replay rebuilds the builder's state by adding the records of a restored
// partial trace, rec(i) for each of part's slots, and fails r unless part,
// as ReadSnapshot read it, is what Snapshot writes from those records: each
// slot derived from its record, the rules' block count, no indirect end,
// and no record that ends the trace.
func (b *Builder) Replay(r *snap.Reader, part *Trace, rec func(i int) *emu.Committed) {
	*b = NewBuilder(b.cfg)
	for i := range part.Slots {
		if want := NewSlot(rec(i), i, 0, Profile{}); part.Slots[i] != want {
			r.Failf("trace builder slot %d is %+v, but its record derives %+v", i, part.Slots[i], want)
			return
		}
		if b.Add(rec(i)) != 0 {
			r.Failf("pending record %d ends the trace under construction", i)
			return
		}
	}
	if part.Blocks != b.blocks || part.EndsIndirect {
		r.Failf("trace builder records %d blocks (indirect end %v); its records derive %d blocks and no indirect end",
			part.Blocks, part.EndsIndirect, b.blocks)
	}
}
