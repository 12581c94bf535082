package core

import (
	"sort"

	"ctcp/internal/snap"
	"ctcp/internal/trace"
)

// Snapshot serializes one retired-instruction record (a leaf value: no
// section of its own).
func (ri *RetireInfo) Snapshot(w *snap.Writer) {
	ri.Rec.Snapshot(w)
	w.Bool(ri.FromTC)
	w.U8(ri.Profile.Role)
	w.U8(ri.Profile.ChainCluster)
	w.Int(ri.Cluster)
	w.U64(ri.FetchGroup)
	w.Int(int(ri.CritSrc))
	w.Bool(ri.CritForwarded)
	w.U64(ri.CritProducerPC)
	w.U64(ri.CritProducerSeq)
	w.Int(ri.CritProducerCluster)
	w.Bool(ri.CritInterTrace)
	w.U8(ri.CritProducerProfile.Role)
	w.U8(ri.CritProducerProfile.ChainCluster)
}

// Restore rebuilds one retired-instruction record.
func (ri *RetireInfo) Restore(r *snap.Reader) {
	ri.Rec.Restore(r)
	ri.FromTC = r.Bool()
	ri.Profile.Role = r.U8()
	ri.Profile.ChainCluster = r.U8()
	ri.Cluster = r.Int()
	ri.FetchGroup = r.U64()
	ri.CritSrc = CritSrc(r.Int())
	ri.CritForwarded = r.Bool()
	ri.CritProducerPC = r.U64()
	ri.CritProducerSeq = r.U64()
	ri.CritProducerCluster = r.Int()
	ri.CritInterTrace = r.Bool()
	ri.CritProducerProfile.Role = r.U8()
	ri.CritProducerProfile.ChainCluster = r.U8()
}

// Snapshot serializes the chain-designation table: its live entries in
// FIFO order, oldest designation first. Stale order references are skipped,
// so the encoding depends only on the live designations and their order.
// Restoring replays them through Set, which rebuilds an equivalent table:
// same contents and same future eviction order, with the stale references
// compacted away.
func (c *ChainProfile) Snapshot(w *snap.Writer) {
	w.Begin("chains")
	w.Int(c.capLimit)
	live := 0
	for _, ref := range c.order[c.head:] {
		if c.slotFor(ref) != nil {
			live++
		}
	}
	if live != c.count {
		w.Failf("chain profile: %d live FIFO entries but %d table entries", live, c.count)
		return
	}
	w.Int(live)
	for _, ref := range c.order[c.head:] {
		if e := c.slotFor(ref); e != nil {
			w.U64(ref.pc)
			w.U8(e.prof.Role)
			w.U8(e.prof.ChainCluster)
		}
	}
	w.End()
}

// Restore rebuilds the chain-designation table from r.
func (c *ChainProfile) Restore(r *snap.Reader) {
	r.Begin("chains")
	r.ExpectInt("chain table capacity", c.capLimit)
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > c.capLimit {
		r.Failf("chain profile has %d entries (capacity %d)", n, c.capLimit)
		return
	}
	c.Reset()
	for i := 0; i < n; i++ {
		pc := r.U64()
		p := trace.Profile{Role: r.U8(), ChainCluster: r.U8()}
		if r.Err() != nil {
			return
		}
		c.Set(pc, p)
	}
	r.End()
}

// Snapshot serializes the fill unit's persistent state: the chain table,
// the trace under construction, retired instructions pending assignment,
// the per-PC migration history, and the fill statistics. The trace cache
// the unit installs into is owned (and snapshotted) by the pipeline; the
// geometry-derived cluster orders and all per-trace scratch buffers are
// excluded and remain valid/rebuilt on restore.
func (f *FillUnit) Snapshot(w *snap.Writer) {
	w.Begin("fill")
	w.Int(int(f.cfg.Strategy))
	w.Int(f.cfg.Geom.Clusters)
	w.Int(f.cfg.Geom.Width)
	w.Int(f.cfg.Trace.MaxLen)
	w.Bool(f.cfg.DisableChains)
	_ = f.tc // wired at construction; serialized by the pipeline section
	f.chains.Snapshot(w)
	f.builder.Snapshot(w)
	w.Int(len(f.pending))
	for i := range f.pending {
		f.pending[i].Snapshot(w)
	}
	pcs := make([]uint64, 0, 64)
	f.lastCluster.ForEach(func(pc uint64, e *clusterSlot) {
		if e.present {
			pcs = append(pcs, pc)
		}
	})
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.Int(len(pcs))
	for _, pc := range pcs {
		w.U64(pc)
		w.Int(int(f.lastCluster.Lookup(pc).cluster))
	}
	// Geometry-derived orders, rebuilt by Reset when the geometry
	// changes: not serialized.
	_ = f.selfFirst
	_ = f.midsTrunc
	_ = f.natOrder
	_ = f.midOrder
	// Per-trace scratch, reused across traces: not serialized.
	_ = f.assigned
	_ = f.capacity
	_ = f.prods
	_ = f.consumers
	_ = f.order
	_ = f.nextSlot
	w.Counters(&f.S)
	w.End()
}

// Restore rebuilds the fill unit's persistent state from r into a unit
// constructed by NewFillUnit with the same configuration.
func (f *FillUnit) Restore(r *snap.Reader) {
	r.Begin("fill")
	r.ExpectInt("fill strategy", int(f.cfg.Strategy))
	r.ExpectInt("fill clusters", f.cfg.Geom.Clusters)
	r.ExpectInt("fill cluster width", f.cfg.Geom.Width)
	r.ExpectInt("fill trace max length", f.cfg.Trace.MaxLen)
	if got := r.Bool(); r.Err() == nil && got != f.cfg.DisableChains {
		r.Failf("fill DisableChains mismatch: snapshot has %v, this configuration has %v", got, f.cfg.DisableChains)
	}
	f.chains.Restore(r)
	f.builder.Restore(r)
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 {
		r.Failf("fill unit has negative pending count %d", n)
		return
	}
	f.pending = f.pending[:0]
	for i := 0; i < n; i++ {
		var ri RetireInfo
		ri.Restore(r)
		if r.Err() != nil {
			return
		}
		f.pending = append(f.pending, ri)
	}
	nc := r.Int()
	if r.Err() != nil {
		return
	}
	f.lastCluster.Reset()
	for i := 0; i < nc; i++ {
		pc := r.U64()
		*f.lastCluster.Ensure(pc) = clusterSlot{cluster: int16(r.Int()), present: true}
	}
	r.Counters(&f.S)
	r.End()
}
