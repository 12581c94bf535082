package pipeline

import (
	"sort"

	"ctcp/internal/emu"
	"ctcp/internal/pcmap"
	"ctcp/internal/snap"
)

// snapReady reports why the pipeline is not at a snapshotable boundary, or
// "" when it is. Snapshot and Restore both demand an empty machine: nothing
// buffered, nothing in flight, no pending redirect. RunTo leaves the
// pipeline exactly here between segments; Snapshot at any
// other point would have to encode the whole out-of-order window, which
// the drained-boundary contract deliberately avoids.
func (p *Pipeline) snapReady() string {
	switch {
	case p.havePeek:
		return "a committed record is buffered"
	case p.pendingRedirect != noID:
		return "a fetch redirect is pending"
	case p.robLen != 0:
		return "the ROB is not empty"
	case p.fqLen != 0:
		return "the fetch queue is not empty"
	case p.lastStore != noID:
		return "a store is still tracked for forwarding"
	case p.loadsInROB != 0:
		return "loads are still in flight"
	case p.storeWatermark != p.storeSeqNext:
		return "a store is still unissued in the disambiguation window"
	}
	if p.steerQ.len() != 0 {
		return "the steering queue is not empty"
	}
	for c := range p.cl {
		cs := &p.cl[c]
		switch {
		case cs.queue.len() != 0:
			return "a dispatch queue is not empty"
		case cs.count != [len(cs.count)]int{} || cs.full != 0:
			return "a reservation station is not empty"
		case cs.live != 0:
			return "a reservation station window has live entries"
		case cs.nReady != 0:
			return "a ready count is not zero"
		}
		for _, id := range cs.ids {
			if id != noID {
				return "a reservation station entry is live"
			}
		}
		for _, w := range cs.ready {
			if w != 0 {
				return "a ready-mask bit is set"
			}
		}
	}
	for _, n := range p.due {
		if n != 0 {
			return "an entry is waiting on a due list"
		}
	}
	for _, n := range p.loadWaitHead {
		if n != 0 {
			return "a load is waiting on the store watermark"
		}
	}
	for r := range p.renameMap {
		if p.renameMap[r] != noID {
			return "the rename map has live producers"
		}
	}
	return ""
}

// Snapshot encodes the pipeline and every component it owns. It is only
// legal at a drained trace boundary — the state RunTo leaves between
// segments — where the out-of-order window is empty and all machine state
// lives in the timing tables, the profile structures, and the components.
// Restoring the encoding into a freshly constructed Pipeline with the same
// configuration and an equivalent stream continues bit-identically to this
// pipeline running on.
func (p *Pipeline) Snapshot(w *snap.Writer) {
	if why := p.snapReady(); why != "" {
		w.Failf("pipeline snapshot outside a drained boundary: %s", why)
		return
	}
	p.checkpoint(&w.Codec)
}

// Restore decodes the pipeline from r. The receiver must be freshly
// constructed by New, or returned to that state by Reset, with the same
// configuration the snapshot was taken under and a stream of the same
// concrete type (its position is part of the encoding). After Restore the
// pipeline continues with RunTo / Finish exactly as the snapshotted one
// would have.
func (p *Pipeline) Restore(r *snap.Reader) {
	if why := p.snapReady(); why != "" {
		r.Failf("pipeline restore target is not freshly constructed: %s", why)
		return
	}
	p.checkpoint(&r.Codec)
}

// checkpoint codes the pipeline section at a drained boundary, which
// Snapshot and Restore have checked.
func (p *Pipeline) checkpoint(c *snap.Codec) {
	c.Begin("pipeline")
	// Configuration fingerprint. The full Config is not coded (it can
	// carry a RetireHook closure); these five knobs determine every table
	// geometry the sections below assume.
	c.CheckInt("pipeline strategy", int(p.cfg.Strategy))
	c.CheckInt("pipeline clusters", p.cfg.Geom.Clusters)
	c.CheckInt("pipeline cluster width", p.cfg.Geom.Width)
	c.CheckInt("pipeline fetch width", p.cfg.FetchWidth)
	c.CheckInt("pipeline ROB size", p.cfg.ROBSize)
	_ = p.geom    // copy of cfg.Geom made by Reset
	_ = p.distTab // pure function of geom, rebuilt by Reset
	_ = p.fwdTab  // pure function of geom, rebuilt by Reset

	c.I64(&p.now)
	c.I64(&p.nextFetch)
	c.I64(&p.btbBubble)
	c.I64(&p.lastRetireCycle)
	c.I64(&p.lastDrain)
	c.U64(&p.groupSeq)
	c.U64(&p.consumed)
	c.U64(&p.fetchLimit)
	renamed := p.S.Retired // the renamed count's slot; checked against Retired below
	c.U64(&renamed)
	c.Bool(&p.streamDone)

	c.I64s(&p.sbDrain)
	// Of each cluster's record only the FU free cycles carry state across
	// a drained boundary: the queue, window, mask, station counts and
	// masks are empty there (snapReady), and writeUsed, budget and open
	// are per-cycle scratch, rebuilt before they are read, never coded.
	nc := len(p.cl)
	if c.Int(&nc); c.Err() == nil && nc != len(p.cl) {
		c.Failf("pipeline snapshot has %d clusters of FUs, this configuration has %d", nc, len(p.cl))
	}
	for i := 0; i < nc && c.Err() == nil; i++ {
		fuFree := &p.cl[i].fuFree
		n := len(fuFree)
		if c.Len(&n, 8); c.Err() == nil && n != len(fuFree) {
			c.Failf("pipeline cluster %d has %d FUs in the snapshot, %d in this configuration", i, n, len(fuFree))
		}
		for j := range fuFree {
			c.I64(&fuFree[j])
		}
	}
	p.ports.checkpoint(c, p.now)
	checkpointPCHist(c, &p.pcHist)
	checkpointStats(c, &p.S)
	if c.Err() == nil && renamed != p.S.Retired {
		c.Failf("pipeline snapshot renamed %d instructions but retired %d at a drained boundary", renamed, p.S.Retired)
	}

	// The buffered peek is empty at a drained boundary (snapReady), and a
	// decode leaves it so; predictCond is p.bp.PredictCond bound by Reset;
	// portsUsed is per-cycle scratch like the writeUsed counts it guards,
	// and the due lists are empty at a drained boundary (snapReady). The
	// inflight store holds no live slot at a drained boundary (snapReady
	// checks every structure that could reference one), so it is
	// equivalent to the fresh ring a restored pipeline starts with:
	// residual slot contents are don't-care either way (every field is
	// written before its first read in a new tenancy — see infStore.alloc),
	// and neither the ring position nor the generations are observable
	// across the boundary. The disambiguation ring's contents behind the
	// watermark are don't-care by construction (snapReady asserts the
	// watermark has caught up to the sequence counter, and both counters
	// only ever appear in relative comparisons, so a restored pipeline
	// restarting them at 1 schedules identically).
	if c.Decoding() {
		p.havePeek = false
		p.peekedRec = emu.Committed{}
		p.pendingRedirect = noID
	}
	_ = p.mach // p.stream as an *emu.Machine, derived by Reset
	_ = p.predictCond
	_ = p.portsUsed
	_ = p.due
	_ = p.st
	_ = p.robHead // the ring position of the empty ROB, likewise unobservable
	_ = p.storeRing
	_ = p.storeRingMask

	if cs, ok := p.stream.(snap.Checkpointable); ok {
		cs.Checkpoint(c)
	} else {
		c.Failf("pipeline stream %T is not snap.Checkpointable", p.stream)
	}
	p.bp.Checkpoint(c)
	p.icache.Checkpoint(c)
	p.mem.Checkpoint(c)
	p.tc.Checkpoint(c)
	p.fill.Checkpoint(c)
	c.End()
}

// checkpoint codes the port schedule's live bookings: ring slots whose
// absolute cycle is current (>= now) and booked, in ascending cycle order.
// Lapped slots read as empty to book() and are dropped. Decoding resets the
// ring and replays the bookings.
func (ps *portSched) checkpoint(c *snap.Codec, now int64) {
	type booking struct {
		cycle int64
		used  int
	}
	var live []booking
	if c.Decoding() {
		ps.reset()
	} else {
		for i := range ps.cycle {
			if ps.cycle[i] >= now && ps.used[i] > 0 {
				live = append(live, booking{ps.cycle[i], int(ps.used[i])})
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].cycle < live[j].cycle })
	}
	n := len(live)
	if c.Int(&n); c.Err() == nil && (n < 0 || n > portWindow) {
		c.Failf("port schedule has %d bookings (window %d)", n, portWindow)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var b booking
		if !c.Decoding() {
			b = live[i]
		}
		c.I64(&b.cycle)
		if c.Int(&b.used); c.Decoding() && c.Err() == nil {
			idx := b.cycle & (portWindow - 1)
			ps.cycle[idx] = b.cycle
			ps.used[idx] = int32(b.used)
		}
	}
}

// checkpointPCHist codes the per-static-PC producer history: the count of
// non-zero entries, then each one keyed by its PC in ascending PC order. The
// table's dense base/length are layout, not state: decoding regrows an
// equivalent table through Ensure into the (fresh) table.
func checkpointPCHist(c *snap.Codec, t *pcmap.Map[pcStats]) {
	var pcs []uint64
	if !c.Decoding() {
		t.ForEach(func(pc uint64, e *pcStats) {
			if *e != (pcStats{}) {
				pcs = append(pcs, pc)
			}
		})
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	}
	n := len(pcs)
	c.Len(&n, 8+4*8)
	for i := 0; i < n && c.Err() == nil; i++ {
		var pc uint64
		var e pcStats
		if !c.Decoding() {
			pc = pcs[i]
			e = *t.Lookup(pc)
		}
		c.U64(&pc)
		c.U64(&e.lastProd[0])
		c.U64(&e.lastProd[1])
		c.U64(&e.lastCritInter[0])
		if c.U64(&e.lastCritInter[1]); c.Decoding() && c.Err() == nil {
			*t.Ensure(pc) = e
		}
	}
}

// checkpointStats codes the pipeline-local statistics. The BP/TC/Fill
// sub-structures are excluded (tagged snap:"-"): they are copies Finish takes
// from the live components (each coded in its own section), and a segmented
// run only calls Finish once, after the last segment. The trailing zero is
// the length of the per-cycle pipe trace Stats once carried; it stays so
// checkpoints written before its removal still decode.
func checkpointStats(c *snap.Codec, s *Stats) {
	c.Counters(s)
	var pipeTrace int
	if c.Int(&pipeTrace); pipeTrace != 0 {
		c.Failf("pipeline stats carry a %d-line pipe trace, which this build no longer records", pipeTrace)
	}
}
