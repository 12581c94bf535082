package core

import (
	"sort"

	"ctcp/internal/emu"
	"ctcp/internal/snap"
	"ctcp/internal/trace"
)

// Checkpoint codes one retired-instruction record (a leaf value: no section
// of its own).
func (ri *RetireInfo) Checkpoint(c *snap.Codec) {
	ri.Rec.Checkpoint(c)
	c.Bool(&ri.FromTC)
	ri.Profile.Checkpoint(c)
	c.Int(&ri.Cluster)
	c.U64(&ri.FetchGroup)
	c.Int((*int)(&ri.CritSrc))
	c.Bool(&ri.CritForwarded)
	c.U64(&ri.CritProducerPC)
	c.U64(&ri.CritProducerSeq)
	c.Int(&ri.CritProducerCluster)
	c.Bool(&ri.CritInterTrace)
	ri.CritProducerProfile.Checkpoint(c)
}

// Checkpoint codes the chain-designation table: its live entries in FIFO
// order, oldest designation first. Stale order references are skipped, so
// the encoding depends only on the live designations and their order.
// Decoding replays them through Set, which rebuilds an equivalent table:
// same contents and same future eviction order, with the stale references
// compacted away.
func (c *ChainProfile) Checkpoint(cd *snap.Codec) {
	cd.Begin("chains")
	cd.CheckInt("chain table capacity", c.capLimit)
	if !cd.Decoding() {
		live := 0
		for _, ref := range c.order[c.head:] {
			if c.slotFor(ref) != nil {
				live++
			}
		}
		if live != c.count {
			cd.Failf("chain profile: %d live FIFO entries but %d table entries", live, c.count)
			return
		}
		cd.Int(&live)
		for _, ref := range c.order[c.head:] {
			if e := c.slotFor(ref); e != nil {
				cd.U64(&ref.pc)
				e.prof.Checkpoint(cd)
			}
		}
		cd.End()
		return
	}
	var n int
	if cd.Int(&n); cd.Err() == nil && (n < 0 || n > c.capLimit) {
		cd.Failf("chain profile has %d entries (capacity %d)", n, c.capLimit)
	}
	if cd.Err() != nil {
		return
	}
	c.Reset()
	for i := 0; i < n; i++ {
		var pc uint64
		var p trace.Profile
		cd.U64(&pc)
		if p.Checkpoint(cd); cd.Err() != nil {
			return
		}
		c.Set(pc, p)
	}
	cd.End()
}

// pendingRec returns the record of slot i of the trace under construction.
func (f *FillUnit) pendingRec(i int) *emu.Committed { return &f.pending[i].Rec }

// Checkpoint codes the fill unit's persistent state: the chain table, the
// trace under construction (a builder section derived from the pending
// records, then the records), the per-PC migration history, and the fill
// statistics. A decode target must be constructed by NewFillUnit with the
// same configuration. The trace cache the unit installs into is owned (and
// coded) by the pipeline; the geometry-derived cluster orders, the recycled
// lines and all per-trace scratch buffers are excluded and remain
// valid/rebuilt on decode.
func (f *FillUnit) Checkpoint(c *snap.Codec) {
	c.Begin("fill")
	c.CheckInt("fill strategy", int(f.cfg.Strategy))
	c.CheckInt("fill clusters", f.cfg.Geom.Clusters)
	c.CheckInt("fill cluster width", f.cfg.Geom.Width)
	c.CheckInt("fill trace max length", f.cfg.Trace.MaxLen)
	chains := f.cfg.DisableChains
	if c.Bool(&chains); c.Err() == nil && chains != f.cfg.DisableChains {
		c.Failf("fill DisableChains mismatch: snapshot has %v, this configuration has %v", chains, f.cfg.DisableChains)
	}
	_ = f.tc // wired at construction; coded by the pipeline section
	f.chains.Checkpoint(c)
	part := f.builder.Checkpoint(c, f.pendingRec)
	n := len(f.pending)
	if c.Int(&n); c.Decoding() {
		if c.Err() == nil && n != len(part.Slots) { // the records are the trace's slots
			c.Failf("fill unit has %d pending records for %d trace builder slots", n, len(part.Slots))
		}
		if c.Err() != nil {
			return
		}
		f.pending = f.pending[:n]
	}
	for i := range f.pending {
		if f.pending[i].Checkpoint(c); c.Err() != nil {
			return
		}
	}
	if c.Decoding() {
		if f.builder.Replay(c, part, f.pendingRec); c.Err() != nil {
			return
		}
	}
	f.checkpointMigrations(c)
	// Geometry-derived orders, rebuilt by Reset when the geometry
	// changes: not coded.
	_ = f.selfFirst
	_ = f.midsTrunc
	_ = f.natOrder
	_ = f.midOrder
	// Recycled line storage, which the pool keeps across a decode: not
	// coded.
	_ = f.free
	// Per-trace scratch, reused across traces: not coded.
	_ = f.profiles
	_ = f.assigned
	_ = f.capacity
	_ = f.prods
	_ = f.consumers
	_ = f.order
	_ = f.nextSlot
	c.Counters(&f.S)
	c.End()
}

// checkpointMigrations codes the per-PC migration history: the count of
// PCs with a recorded cluster, then each PC and its cluster, in ascending
// PC order. Decoding replays them into the emptied table.
func (f *FillUnit) checkpointMigrations(c *snap.Codec) {
	var pcs []uint64
	if c.Decoding() {
		f.lastCluster.Reset()
	} else {
		f.lastCluster.ForEach(func(pc uint64, e *clusterSlot) {
			if e.present {
				pcs = append(pcs, pc)
			}
		})
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	}
	n := len(pcs)
	c.Len(&n, 16)
	for i := 0; i < n; i++ {
		var pc uint64
		var cluster int
		if !c.Decoding() {
			pc = pcs[i]
			cluster = int(f.lastCluster.Lookup(pc).cluster)
		}
		c.U64(&pc)
		if c.Int(&cluster); c.Decoding() {
			*f.lastCluster.Ensure(pc) = clusterSlot{cluster: int16(cluster), present: true}
		}
	}
}
