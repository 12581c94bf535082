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
// other point would have to serialize the whole out-of-order window, which
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

// Snapshot serializes the pipeline and every component it owns. It is only
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
	w.Begin("pipeline")
	// Configuration fingerprint. The full Config is not serialized (it can
	// carry a RetireHook closure); these five knobs determine every table
	// geometry the sections below assume.
	w.Int(int(p.cfg.Strategy))
	w.Int(p.cfg.Geom.Clusters)
	w.Int(p.cfg.Geom.Width)
	w.Int(p.cfg.FetchWidth)
	w.Int(p.cfg.ROBSize)
	_ = p.geom    // copy of cfg.Geom made by Reset
	_ = p.distTab // pure function of geom, rebuilt by Reset
	_ = p.fwdTab  // pure function of geom, rebuilt by Reset

	w.I64(p.now)
	w.I64(p.nextFetch)
	w.I64(p.btbBubble)
	w.I64(p.lastRetireCycle)
	w.I64(p.lastDrain)
	w.U64(p.groupSeq)
	w.U64(p.consumed)
	w.U64(p.fetchLimit)
	w.U64(p.S.Retired) // the renamed count's slot; Restore checks they agree
	w.Bool(p.streamDone)

	w.I64Slice(p.sbDrain)
	// Of each cluster's record only the FU free cycles carry state across
	// a drained boundary: the queue, window, mask, station counts and
	// masks are empty there (snapReady), and writeUsed, budget and open
	// are per-cycle scratch, rebuilt before they are read, never
	// serialized.
	w.Int(len(p.cl))
	for c := range p.cl {
		w.I64Slice(p.cl[c].fuFree[:])
	}
	p.ports.snapshot(w, p.now)
	snapshotPCHist(w, &p.pcHist)
	snapshotStats(w, &p.S)

	// The buffered peek is empty at a drained boundary (asserted above);
	// predictCond is p.bp.PredictCond bound by Reset; portsUsed is
	// per-cycle scratch like the writeUsed counts it guards, and the due
	// lists are empty at a drained boundary (asserted above). The inflight
	// store holds no live slot at a drained boundary (snapReady checks every
	// structure that could reference one), so it is equivalent to the fresh
	// ring a restored pipeline starts with: residual slot contents are
	// don't-care either way (every field is written before its first read in
	// a new tenancy — see infStore.alloc), and neither the ring position nor
	// the generations are observable across the boundary. The
	// disambiguation ring's contents behind the watermark are don't-care by
	// construction (snapReady asserts the watermark has caught up to the
	// sequence counter, and both counters only ever appear in relative
	// comparisons, so a restored pipeline restarting them at 1 schedules
	// identically).
	_ = p.peekedRec
	_ = p.mach // p.stream as an *emu.Machine, derived by Reset
	_ = p.predictCond
	_ = p.portsUsed
	_ = p.due
	_ = p.st
	_ = p.robHead // the ring position of the empty ROB, likewise unobservable
	_ = p.storeRing
	_ = p.storeRingMask

	if cs, ok := p.stream.(snap.Checkpointable); ok {
		cs.Snapshot(w)
	} else {
		w.Failf("pipeline stream %T is not snap.Checkpointable", p.stream)
	}
	p.bp.Snapshot(w)
	p.icache.Snapshot(w)
	p.mem.Snapshot(w)
	p.tc.Snapshot(w)
	p.fill.Snapshot(w)
	w.End()
}

// Restore rebuilds the pipeline from r. The receiver must be freshly
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
	r.Begin("pipeline")
	r.ExpectInt("pipeline strategy", int(p.cfg.Strategy))
	r.ExpectInt("pipeline clusters", p.cfg.Geom.Clusters)
	r.ExpectInt("pipeline cluster width", p.cfg.Geom.Width)
	r.ExpectInt("pipeline fetch width", p.cfg.FetchWidth)
	r.ExpectInt("pipeline ROB size", p.cfg.ROBSize)

	p.now = r.I64()
	p.nextFetch = r.I64()
	p.btbBubble = r.I64()
	p.lastRetireCycle = r.I64()
	p.lastDrain = r.I64()
	p.groupSeq = r.U64()
	p.consumed = r.U64()
	p.fetchLimit = r.U64()
	renamed := r.U64()
	p.streamDone = r.Bool()

	p.sbDrain = r.I64Slice()
	nc := r.Int()
	if r.Err() != nil {
		return
	}
	if nc != len(p.cl) {
		r.Failf("pipeline snapshot has %d clusters of FUs, this configuration has %d", nc, len(p.cl))
		return
	}
	for c := range p.cl {
		fuFree := &p.cl[c].fuFree
		row := r.I64Slice()
		if r.Err() != nil {
			return
		}
		if len(row) != len(fuFree) {
			r.Failf("pipeline cluster %d has %d FUs in the snapshot, %d in this configuration", c, len(row), len(fuFree))
			return
		}
		copy(fuFree[:], row)
	}
	p.ports.restore(r)
	restorePCHist(r, &p.pcHist)
	restoreStats(r, &p.S)
	if r.Err() == nil && renamed != p.S.Retired {
		r.Failf("pipeline snapshot renamed %d instructions but retired %d at a drained boundary", renamed, p.S.Retired)
	}

	p.havePeek = false
	p.peekedRec = emu.Committed{}
	p.pendingRedirect = noID

	if cs, ok := p.stream.(snap.Checkpointable); ok {
		cs.Restore(r)
	} else {
		r.Failf("pipeline stream %T is not snap.Checkpointable", p.stream)
	}
	p.bp.Restore(r)
	p.icache.Restore(r)
	p.mem.Restore(r)
	p.tc.Restore(r)
	p.fill.Restore(r)
	r.End()
}

// snapshot emits the port schedule's live bookings: ring slots whose
// absolute cycle is current (>= now) and booked. Lapped slots read as empty
// to book() and are dropped; emission is in ascending cycle order.
func (ps *portSched) snapshot(w *snap.Writer, now int64) {
	type booking struct {
		cycle int64
		used  int32
	}
	var live []booking
	for i := range ps.cycle {
		if ps.cycle[i] >= now && ps.used[i] > 0 {
			live = append(live, booking{ps.cycle[i], ps.used[i]})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].cycle < live[j].cycle })
	w.Int(len(live))
	for _, b := range live {
		w.I64(b.cycle)
		w.Int(int(b.used))
	}
}

// restore resets the ring and replays the live bookings.
func (ps *portSched) restore(r *snap.Reader) {
	ps.reset()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > portWindow {
		r.Failf("port schedule has %d bookings (window %d)", n, portWindow)
		return
	}
	for i := 0; i < n; i++ {
		cycle := r.I64()
		used := r.Int()
		if r.Err() != nil {
			return
		}
		idx := cycle & (portWindow - 1)
		ps.cycle[idx] = cycle
		ps.used[idx] = int32(used)
	}
}

// snapshotPCHist emits the per-static-PC producer history: the count of
// non-zero entries, then each one keyed by its PC in ascending PC order. The
// table's dense base/length are layout, not state: restorePCHist regrows an
// equivalent table through Ensure.
func snapshotPCHist(w *snap.Writer, t *pcmap.Map[pcStats]) {
	var pcs []uint64
	t.ForEach(func(pc uint64, e *pcStats) {
		if *e != (pcStats{}) {
			pcs = append(pcs, pc)
		}
	})
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.Int(len(pcs))
	for _, pc := range pcs {
		e := t.Lookup(pc)
		w.U64(pc)
		w.U64(e.lastProd[0])
		w.U64(e.lastProd[1])
		w.U64(e.lastCritInter[0])
		w.U64(e.lastCritInter[1])
	}
}

// restorePCHist replays the entries through Ensure into the (fresh) table.
func restorePCHist(r *snap.Reader, t *pcmap.Map[pcStats]) {
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 {
		r.Failf("pc table has negative entry count %d", n)
		return
	}
	for i := 0; i < n; i++ {
		pc := r.U64()
		var e pcStats
		e.lastProd[0] = r.U64()
		e.lastProd[1] = r.U64()
		e.lastCritInter[0] = r.U64()
		e.lastCritInter[1] = r.U64()
		if r.Err() != nil {
			return
		}
		*t.Ensure(pc) = e
	}
}

// snapshotStats serializes the pipeline-local statistics. The BP/TC/Fill
// sub-structures are excluded (tagged snap:"-"): they are copies Finish takes
// from the live components (each serialized in its own section), and a
// segmented run only calls Finish once, after the last segment. The trailing
// zero is the length of the per-cycle pipe trace Stats once carried; it stays
// so checkpoints written before its removal still decode.
func snapshotStats(w *snap.Writer, s *Stats) {
	w.Counters(s)
	w.Int(0)
}

func restoreStats(r *snap.Reader, s *Stats) {
	r.Counters(s)
	if n := r.Int(); r.Err() == nil && n != 0 {
		r.Failf("pipeline stats carry a %d-line pipe trace, which this build no longer records", n)
	}
}
