package pipeline

import (
	"fmt"
	"math/bits"

	"ctcp/internal/bpred"
	"ctcp/internal/cachesim"
	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pcmap"
	"ctcp/internal/trace"
)

const unknown = int64(-1)

// Pipeline is the cycle-level CTCP model. Per-instruction in-flight state
// lives in one record per slot of a ring allocated in fetch order (see
// ring.go); every reference between instructions — producer edges, the
// store-disambiguation chain, queues, the rename map — is a
// generation-checked infID into that ring.
type Pipeline struct {
	cfg  Config
	geom cluster.Geometry
	// Flattened Clusters×Clusters tables of geom.Distance and geom.ForwardLat
	// (row producer, column consumer). Distance's bounds guard keeps it above
	// the inlining budget, and the scheduler consults both once or more per
	// forwarded input — a flat indexed load beats the call.
	distTab []uint8
	fwdTab  []int64

	bp     *bpred.Predictor
	tc     *trace.Cache
	fill   *core.FillUnit
	icache *cachesim.Cache
	mem    *cachesim.Hierarchy

	stream emu.Stream
	// mach is stream when it is an *emu.Machine, else nil: refill calls the
	// interpreter directly instead of through the interface.
	mach *emu.Machine
	// predictCond is p.bp.PredictCond, bound whenever Reset replaces bp;
	// creating the method value at every trace cache lookup allocated a
	// closure per fetch.
	predictCond func(uint64) bool
	peekedRec   emu.Committed
	havePeek    bool
	streamDone  bool

	now int64

	st infStore // per-instruction state, indexed by infID

	// The ROB and the fetch queue are spans of the ring, which allocates in
	// fetch order and retires in the same order: the ROB is the robLen
	// slots from robHead, oldest first, and the fetch queue the fqLen after.
	robHead uint32
	robLen  int
	fqLen   int

	cl     []clusterState // one scheduler record per cluster
	steerQ infQueue       // global in-order queue (issue-time steering)
	// portsUsed reports that a write port was taken since dispatch last
	// cleared every cluster's writeUsed (per-cycle scratch, like it).
	portsUsed bool

	// due holds the heads of the due lists: an entry resolved ahead of its
	// ready cycle waits on the list of that cycle, slot due[cycle%dueRing],
	// until issue sets its ready-mask bit in that cycle (slot+1 links through
	// inflight.waitNext; 0 = empty).
	due [dueRing]uint32

	renameMap  [isa.NumRegs]infID
	lastStore  infID
	loadsInROB int

	// Store-disambiguation watermark: stores take a sequence number at
	// rename; storeWatermark is the lowest seq not yet known-issued, so
	// "every store older than barrier b has issued" is the single compare
	// storeWatermark > b instead of a prevStore chain walk per cycle.
	// storeRing marks issued seqs ahead of the watermark; loadWaitHead
	// chains loads blocked until the watermark passes their barrier.
	storeSeqNext   uint64
	storeWatermark uint64
	storeRingMask  uint64
	storeRing      []bool
	loadWaitHead   []uint32

	sbDrain   []int64 // store buffer: drain completion times
	lastDrain int64
	ports     portSched

	pendingRedirect infID
	nextFetch       int64
	btbBubble       int64
	groupSeq        uint64

	pcHist pcmap.Map[pcStats] // per-static-PC producer history (Table 3)

	lastRetireCycle int64

	// consumed counts committed records pulled from the stream, including
	// the one buffered in peekedRec. fetchLimit, when non-zero, pauses
	// fetch once consumed reaches it: the mechanism behind segmented RunTo
	// execution and drained-boundary snapshots.
	consumed   uint64
	fetchLimit uint64

	S Stats
}

// dueRing is the number of due lists, a power of two: an entry due within
// dueRing-1 cycles waits on its own cycle's list, one due later on the
// farthest list, which files it again when it drains.
const dueRing = 64

// clusterState is one cluster's scheduler record: its dispatch queue, its
// reservation-station window and stations, and its functional units. Each
// stage takes a cluster's record once. The leading fields are what
// steering reads of every cluster, so that costs one cache line a cluster.
type clusterState struct {
	live int // non-hole entries of ids: the cluster's station occupancy
	// budget and open are issue-time steering's per-cycle scratch, built
	// only in cycles where the head of the steering window is
	// dispatch-ready: the instructions steering may still send here this
	// cycle, and the stations that can still take one (bit rs: not full,
	// a write port left; none once budget is spent).
	budget int
	open   uint8
	full   uint8 // stations count has filled (bit rs)

	nReady    int                       // set bits in ready
	count     [cluster.NumRSKinds]int   // per-station occupancy
	writeUsed [cluster.NumRSKinds]int   // per-cycle scratch: write ports taken (see portsUsed)
	fuFree    [cluster.NumFUKinds]int64 // per-FU next-free cycle

	// ids is the reservation-station window in age order; issued entries
	// become noID holes (their mask bits are clear, so the scan skips
	// whole words of them for free) and the window is compacted only when
	// it is mostly holes, keeping compaction cost amortized O(1) per
	// dispatch. ready bit i set means ids[i] is resolved, unissued and due
	// (its ready cycle has come). Both are sized once by Reset to the
	// window's bound (windowCap) and never grow.
	ids   []infID
	ready []uint64
	queue infQueue // in-order dispatch queue (slot-based)
}

// compactMin is the shortest window issue compacts.
const compactMin = 64

// windowCap bounds a cluster's reservation-station window. After issue
// the window is at most max(compactMin-1, 2·live) long: issue compacts a
// window of compactMin or more entries that is mostly holes. live is at
// most NumRSKinds·Entries, the stations' capacity, and at most ROBSize,
// because every station entry is in the ROB. Dispatch then adds at most
// Width entries, and no more than the stations can take.
func windowCap(cfg Config) int {
	live := min(int(cluster.NumRSKinds)*min(cfg.RS.Entries, cfg.ROBSize), cfg.ROBSize)
	return max(compactMin-1, 2*live) + min(cfg.Geom.Width, live)
}

// reset empties the record in place, keeping the queue buffer, and gives
// it a window of capacity window with a ready mask to match: the old ones,
// cleared, when they have that size, else new ones.
func (cs *clusterState) reset(window int) {
	ids, ready := cs.ids[:0], cs.ready
	if cap(ids) == window {
		clear(ready)
	} else {
		ids, ready = make([]infID, 0, window), make([]uint64, (window+63)/64)
	}
	q := cs.queue
	q.reset()
	*cs = clusterState{ids: ids, ready: ready, queue: q}
}

// New builds a pipeline reading committed instructions from stream. The
// configuration is validated up front: a bad Config panics *core.InvariantError
// immediately (recovered into a *SimError by RunProgramErr) rather than
// failing later inside the model.
func New(stream emu.Stream, cfg Config) *Pipeline {
	p := new(Pipeline)
	p.Reset(stream, cfg)
	return p
}

// Reset returns p, in any state, to exactly the state New(stream, cfg)
// builds. That covers a finished run, one paused by RunTo, and one
// abandoned mid-cycle by a panic. Reset is the pipeline's only
// initialization path. Buffers whose geometry is unchanged are kept and
// cleared in place; those whose geometry changed are rebuilt at the new
// size rather than enlarged, so a reused pipeline holds no more memory than
// cfg needs (DESIGN.md §7). A bad cfg panics *core.InvariantError before p is
// touched.
func (p *Pipeline) Reset(stream emu.Stream, cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(&core.InvariantError{Msg: err.Error()})
	}
	g := cfg.Geom
	p.cfg, p.geom = cfg, g
	p.stream = stream
	p.mach, _ = stream.(*emu.Machine)

	// Components are reset in place while their configuration is unchanged.
	if p.bp == nil || p.bp.Config() != cfg.BP {
		p.bp = bpred.New(cfg.BP)
		p.predictCond = p.bp.PredictCond
	} else {
		p.bp.Reset()
	}
	if p.icache == nil || p.icache.Config() != cfg.ICache {
		p.icache = cachesim.New(cfg.ICache)
	} else {
		p.icache.Reset()
	}
	if p.mem == nil || p.mem.Config() != cfg.Mem {
		p.mem = cachesim.NewHierarchy(cfg.Mem)
	} else {
		p.mem.Reset()
	}
	if p.tc == nil || p.tc.Config() != cfg.Trace {
		p.tc = trace.NewCache(cfg.Trace)
	}
	if p.fill == nil {
		p.fill = new(core.FillUnit)
	}
	// The fill unit empties the trace cache, recycling its lines.
	p.fill.Reset(core.Config{
		Strategy:      cfg.Strategy,
		DisableChains: cfg.DisableChains,
		Geom:          g,
		Trace:         cfg.Trace,
	}, p.tc)

	n := g.Clusters
	p.distTab = zeroed(p.distTab, n*n)
	p.fwdTab = zeroed(p.fwdTab, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			p.distTab[a*n+b] = uint8(g.Distance(a, b))
			p.fwdTab[a*n+b] = int64(g.ForwardLat(a, b))
		}
	}
	if len(p.cl) != n {
		p.cl = make([]clusterState, n)
	}
	window := windowCap(cfg)
	for c := range p.cl {
		p.cl[c].reset(window)
	}
	p.portsUsed = false
	p.due = [dueRing]uint32{}
	p.steerQ.reset()

	// The in-flight store is a ring that reuses a slot only when it laps
	// it, so its n slots must outlast every reference. Every reference
	// between records (prod, critProd, prevStore, the rename map,
	// lastStore) is formed at rename, to a producer still in the ROB, so
	// it points at most ROBSize-1 allocations back from an unretired
	// instruction. Unretired instructions are the robLen + fqLen slots
	// from robHead: robLen is at most ROBSize, and fetch adds a group of at
	// most max(FetchWidth, Trace.MaxLen) only while fqLen is under
	// 2·FetchWidth, so no reference reaches n allocations back from the
	// newest. pendingRedirect blocks fetch while it is set and clears in
	// the cycle its instruction retires, before the next fetch. The ring is
	// rebuilt when n changes and cleared in place otherwise.
	if n := 2*cfg.ROBSize + 2*cfg.FetchWidth + max(cfg.FetchWidth, cfg.Trace.MaxLen); len(p.st.e) != n {
		p.st.size(n)
	} else {
		p.st.reset()
	}
	p.robHead, p.robLen, p.fqLen = 0, 0, 0
	p.renameMap = [isa.NumRegs]infID{}
	p.lastStore = noID
	p.loadsInROB = 0

	// The watermark ring must cover every live store seq: outstanding
	// (renamed, unissued) stores are bounded by ROB occupancy.
	ring := 1
	for ring < 2*(cfg.ROBSize+1) {
		ring <<= 1
	}
	p.storeRing = zeroed(p.storeRing, ring)
	p.loadWaitHead = zeroed(p.loadWaitHead, ring)
	p.storeRingMask = uint64(ring - 1)
	p.storeSeqNext = 1
	p.storeWatermark = 1

	p.sbDrain = p.sbDrain[:0]
	p.lastDrain = -1
	p.ports.reset()

	p.peekedRec = emu.Committed{}
	p.havePeek = false
	p.streamDone = false
	p.now = 0
	p.pendingRedirect = noID
	p.nextFetch = 0
	p.btbBubble = 0
	p.groupSeq = 0
	p.pcHist.Reset()
	p.lastRetireCycle = 0
	p.consumed = 0
	p.fetchLimit = 0
	p.S = Stats{}
}

// zeroed returns s with every element cleared, reallocated only when its
// length is not n.
func zeroed[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	clear(s)
	return s
}

// FillUnit exposes the fill unit (tests and experiments read its stats).
func (p *Pipeline) FillUnit() *core.FillUnit { return p.fill }

// Run drives the model until the stream is exhausted (or Config.MaxInsts
// records are consumed) and the machine drains, then returns the collected
// statistics.
func (p *Pipeline) Run() *Stats {
	p.runLoop((*Pipeline).done)
	return p.Finish()
}

// runLoop simulates one cycle at a time until stop reports true. Run stops
// at done (stream exhausted, machine empty); RunTo stops at drained (fetch
// paused at the segment limit, machine empty). A model bug that stalls
// retirement for two million cycles panics instead of looping forever.
func (p *Pipeline) runLoop(stop func(*Pipeline) bool) {
	for !stop(p) {
		p.cycle()
		p.now++
		if p.now-p.lastRetireCycle > 2_000_000 {
			panic(&core.InvariantError{Msg: fmt.Sprintf(
				"pipeline: no retirement progress near cycle %d (rob=%d fetchQ=%d)",
				p.now, p.robLen, p.fqLen)})
		}
	}
}

// RunTo advances the model until the total number of committed records
// consumed from the stream reaches limit and the in-flight instructions
// drain (limit 0 removes the pause and runs to stream exhaustion, like
// Run but without flushing the fill unit). It reports whether the stream
// is exhausted; a non-zero Config.MaxInsts exhausts it after that many
// records, whatever the limit. Between RunTo calls the pipeline sits at a
// drained trace boundary — ROB, fetch and dispatch queues empty — which is
// the only kind of point Snapshot accepts. Limits are cumulative across calls:
// RunTo(k) then RunTo(2k) simulates 2k records in two segments. A
// segmented run is deterministic for a given segment schedule, and
// continuing after a pause is bit-identical whether the same Pipeline
// value keeps going or a Snapshot of it is Restored elsewhere first.
func (p *Pipeline) RunTo(limit uint64) bool {
	p.fetchLimit = limit
	p.runLoop((*Pipeline).drained)
	if !p.streamDone {
		// The pending redirect's instruction has retired by now. Resolve
		// the redirect as the next cycle would, so the continuation is the
		// same whether this Pipeline keeps running or a snapshot of it is
		// restored elsewhere.
		p.clearRedirect()
	}
	return p.streamDone
}

// Finish completes a segmented run: it flushes the fill unit's partial
// trace and returns a copy of the collected statistics, so a caller that
// keeps the result does not keep the Pipeline alive. Run calls it
// internally; RunTo callers invoke it once after the last segment.
func (p *Pipeline) Finish() *Stats {
	p.fill.Flush()
	p.S.Cycles = p.now
	p.S.BP = p.bp.S
	p.S.TC = p.tc.S
	p.S.Fill = p.fill.S
	s := p.S
	return &s
}

// Consumed returns the number of committed records pulled from the stream
// so far (RunTo limits are expressed on this counter).
func (p *Pipeline) Consumed() uint64 { return p.consumed }

// CurrentCycle returns the simulated cycle the model has reached; between
// RunTo segments it is the cycle count Finish would report. Sampled
// simulation uses it to split a detailed window into an unmeasured warmup
// prefix and a measured remainder.
func (p *Pipeline) CurrentCycle() int64 { return p.now }

// Retired returns the number of instructions retired so far.
func (p *Pipeline) Retired() uint64 { return p.S.Retired }

func (p *Pipeline) done() bool {
	return p.streamDone && p.robLen == 0 && p.fqLen == 0
}

// fetchPaused reports whether fetch is paused at a RunTo segment limit.
//
//ctcp:inline
func (p *Pipeline) fetchPaused() bool {
	return p.fetchLimit != 0 && p.consumed >= p.fetchLimit
}

// drained is the segmented-run stop condition: no further record can enter
// the machine (stream exhausted, or fetch paused with no buffered peek)
// and everything in flight has retired.
func (p *Pipeline) drained() bool {
	return (p.streamDone || p.fetchPaused()) && !p.havePeek &&
		p.robLen == 0 && p.fqLen == 0
}

// cycle runs one machine cycle.
func (p *Pipeline) cycle() {
	p.retire()
	p.clearRedirect()
	p.issue()
	p.dispatch()
	p.rename()
	p.fetch()
}

// --- stream helpers ---

// peek returns the next committed record without consuming it; ok is false
// once the stream is exhausted. The record is buffered by value (the old
// implementation heap-allocated a copy per instruction). A fetch group
// peeks once per slot and finds the record buffered on all but the first
// peek after each take, so only refill is out of line.
//
//ctcp:inline
func (p *Pipeline) peek() (*emu.Committed, bool) {
	if p.havePeek {
		return &p.peekedRec, true
	}
	return p.refill()
}

// refill pulls the next record from the stream into the peek buffer.
// Config.MaxInsts is enforced here, on the consumed counter: reaching it
// exhausts the stream.
func (p *Pipeline) refill() (*emu.Committed, bool) {
	if p.streamDone || p.fetchPaused() {
		// A paused fetch is not stream exhaustion: the next RunTo segment
		// resumes pulling records exactly where this one stopped.
		return nil, false
	}
	ok := false
	if p.cfg.MaxInsts == 0 || p.consumed < p.cfg.MaxInsts {
		if p.mach != nil {
			ok = p.mach.NextInto(&p.peekedRec)
		} else {
			ok = p.stream.NextInto(&p.peekedRec)
		}
	}
	if !ok {
		p.streamDone = true
		return nil, false
	}
	p.consumed++
	p.havePeek = true
	return &p.peekedRec, true
}

// take consumes the peeked record; the pointer stays valid until the next
// peek, and newInflight copies it into the store before then.
//
//ctcp:inline
func (p *Pipeline) take() *emu.Committed {
	p.havePeek = false
	return &p.peekedRec
}

// --- fetch ---

// fetch pulls one fetch group per cycle from the trace cache or icache path.
func (p *Pipeline) fetch() {
	if p.pendingRedirect != noID || p.now < p.nextFetch {
		return
	}
	if p.fqLen >= 2*p.cfg.FetchWidth {
		return
	}
	first, ok := p.peek()
	if !ok {
		return
	}
	pc := first.PC
	group := p.groupSeq
	p.groupSeq++
	ready := p.now + int64(p.cfg.FetchStages+p.cfg.DecodeStages) // renameReady
	queued := p.fqLen

	if tr := p.tc.Lookup(pc, p.predictCond); tr != nil {
		p.S.TCGroups++
		for i := range tr.Slots {
			s := &tr.Slots[i]
			r, ok := p.peek()
			if !ok || r.PC != s.PC {
				break // stream diverged (only possible after a redirect cut)
			}
			idx := p.newInflight(p.take(), true, group, s.Cluster, s.Profile, ready)
			if p.handleControl(idx, true) {
				break
			}
		}
		p.S.TCGroupInsts += uint64(p.fqLen - queued)
	} else {
		p.S.ICGroups++
		if !p.icache.Access(pc) {
			p.S.ICacheMisses++
			ready += int64(p.cfg.ICacheMissLat)
		}
		lineEnd := (pc | uint64(p.cfg.ICache.LineSize-1)) + 1
		expect := pc
		for slot := 0; slot < p.cfg.FetchWidth; slot++ {
			r, ok := p.peek()
			if !ok || r.PC != expect || r.PC >= lineEnd {
				break
			}
			idx := p.newInflight(p.take(), false, group, p.geom.SlotCluster(slot), trace.Profile{}, ready)
			if p.handleControl(idx, false) {
				break
			}
			rec := &p.st.e[idx].rec
			if rec.IsTakenControl() {
				break // conventional fetch cannot pass a taken branch
			}
			expect = rec.NextPC
		}
		p.S.ICGroupInsts += uint64(p.fqLen - queued)
	}
	// btbBubble is set only by a fetched instruction's predictControl, so
	// a group that fetched nothing waits the plain one cycle.
	p.nextFetch = p.now + 1 + p.btbBubble
	p.btbBubble = 0
}

// newInflight allocates the ring's next slot for rec, which makes it the
// fetch queue's newest entry, and fills in its fetch-time state.
func (p *Pipeline) newInflight(rec *emu.Committed, fromTC bool, group uint64, cl int, prof trace.Profile, renameReady int64) uint32 {
	idx := p.st.alloc()
	e := &p.st.e[idx]
	p.fqLen++
	e.rec = *rec
	e.renameReady = renameReady
	// Whole-word flag store: reused slots are not zeroed (see alloc), so
	// this is the write that retires the previous tenant's bits.
	flags := uint16(0)
	if fromTC {
		flags = fFromTC
	}
	e.group = group
	e.cluster = int32(cl)
	e.profile = prof
	e.prod = [2]infID{}
	e.resultAt = unknown
	if p.cfg.Strategy.SteersAtIssue() {
		e.cluster = -1
	}
	class := rec.Inst.Op.Class()
	e.class = class
	if class.IsLoad() {
		flags |= fIsLoad
	}
	if class.IsStore() {
		flags |= fIsStore
	}
	e.flags = flags
	return idx
}

// handleControl performs fetch-time prediction bookkeeping for a just-
// consumed instruction and reports whether the fetch group must stop
// (misprediction or unpredictable target). Only control instructions have
// any: the rest return at the inline class check.
//
//ctcp:inline
func (p *Pipeline) handleControl(idx uint32, fromTC bool) bool {
	return p.st.e[idx].class.IsControl() && p.predictControl(idx, fromTC)
}

// predictControl is handleControl for a control instruction.
func (p *Pipeline) predictControl(idx uint32, fromTC bool) bool {
	e := &p.st.e[idx]
	rec := &e.rec
	switch op := rec.Inst.Op; {
	case rec.Inst.IsCond():
		p.S.CondBranches++
		_, correct := p.bp.PredictAndTrainCond(rec.PC, rec.Taken)
		if !correct {
			p.S.Mispredicts++
			e.flags |= fMispredict
			p.pendingRedirect = e.id(idx)
			return true
		}
		if rec.Taken && !fromTC {
			// Conventional fetch needs the BTB for the taken target.
			if _, hit := p.bp.BTBLookup(rec.PC); !hit {
				p.S.BTBBubbles++
				p.btbBubble = int64(p.cfg.BTBMissBubble)
			}
			p.bp.BTBInsert(rec.PC, rec.NextPC)
		}
	case op == isa.BR:
		if !fromTC {
			if _, hit := p.bp.BTBLookup(rec.PC); !hit {
				p.S.BTBBubbles++
				p.btbBubble = int64(p.cfg.BTBMissBubble)
			}
			p.bp.BTBInsert(rec.PC, rec.NextPC)
		}
	case op == isa.JSR, op == isa.JMP:
		target, hit := p.bp.BTBLookup(rec.PC)
		p.bp.BTBInsert(rec.PC, rec.NextPC)
		if op == isa.JSR {
			p.bp.PushReturn(rec.PC + isa.PCStride)
		}
		if !hit || target != rec.NextPC {
			p.S.IndirectMiss++
			e.flags |= fMispredict
			p.pendingRedirect = e.id(idx)
			return true
		}
	case op == isa.RET:
		target, ok := p.bp.PredictReturn()
		if !ok || target != rec.NextPC {
			p.S.IndirectMiss++
			e.flags |= fMispredict
			p.pendingRedirect = e.id(idx)
			return true
		}
	}
	return false
}

// clearRedirect lifts the pending fetch redirect, if any, once its
// instruction has completed.
//
//ctcp:inline
func (p *Pipeline) clearRedirect() {
	if p.pendingRedirect != noID {
		p.endRedirect()
	}
}

// endRedirect is clearRedirect with a redirect pending.
func (p *Pipeline) endRedirect() {
	e := &p.st.e[p.st.index(p.pendingRedirect)]
	if e.flags&fIssued != 0 && e.resultAt <= p.now {
		p.pendingRedirect = noID
		if next := p.now + 1; next > p.nextFetch {
			p.nextFetch = next
		}
		p.S.FetchRedirects++
	}
}

// --- rename ---

// rename maps architectural sources to in-flight producers and admits
// instructions into the ROB.
func (p *Pipeline) rename() {
	st := &p.st
	budget := p.cfg.FetchWidth
	for budget > 0 && p.fqLen > 0 {
		idx := st.wrap(p.robHead + uint32(p.robLen)) // the fetch queue's front
		e := &st.e[idx]
		if e.renameReady > p.now {
			break
		}
		if p.robLen >= p.cfg.ROBSize {
			p.S.ROBFullStalls++
			break
		}
		isLoad := e.flags&fIsLoad != 0
		if isLoad && p.loadsInROB >= p.cfg.LoadQueue {
			p.S.LoadQFullStalls++
			break
		}
		id := e.id(idx)
		for k, r := range e.rec.Src {
			if r == isa.NoReg {
				continue
			}
			// A value whose producer has already completed by rename time is
			// read from the register file; only still-in-flight results are
			// caught from the bypass/forwarding network.
			if pid := p.renameMap[r]; pid != noID {
				pe := &st.e[st.index(pid)]
				if pe.flags&fRetired == 0 &&
					(pe.resultAt == unknown || pe.resultAt > p.now) {
					e.prod[k] = pid
				}
			}
		}
		e.rfReady = p.now + int64(p.cfg.RenameStages+p.cfg.RFLat)
		e.dispatchReady = p.now + int64(p.cfg.RenameStages+p.cfg.SteerStages)
		if d := e.rec.Dest; d != isa.NoReg {
			p.renameMap[d] = id
		}
		e.prevStore = p.lastStore
		if e.flags&fIsStore != 0 {
			p.lastStore = id
			seq := p.storeSeqNext
			p.storeSeqNext++
			e.barrier = seq
			p.storeRing[seq&p.storeRingMask] = false
		} else if isLoad {
			// The newest older store's seq: every store younger than it has
			// a larger seq, so the watermark compare covers the whole chain.
			e.barrier = p.storeSeqNext - 1
		}
		if isLoad {
			p.loadsInROB++
		}
		p.fqLen-- // the fetch queue's front becomes the ROB's tail
		p.robLen++
		if p.cfg.Strategy.SteersAtIssue() {
			p.steerQ.push(id)
		} else {
			p.cl[e.cluster].queue.push(id)
		}
		budget--
	}
}

// --- dispatch (into reservation stations) ---

// dispatch moves renamed instructions into reservation stations, applying
// the configured steering strategy and write-port limits.
func (p *Pipeline) dispatch() {
	if p.cfg.Strategy.SteersAtIssue() {
		p.steer()
		return
	}
	st := &p.st
	p.freePorts()
	for c := range p.cl {
		cs := &p.cl[c]
		n := 0
		for n < p.geom.Width && cs.queue.len() > 0 {
			idx := uint32(cs.queue.front())
			if st.e[idx].dispatchReady > p.now {
				break
			}
			if !p.insertRS(idx, cs) {
				break
			}
			cs.queue.popFront()
			n++
		}
	}
}

// freePorts frees every write port for this cycle's dispatch, clearing the
// counts only when a port was taken since they were last cleared.
func (p *Pipeline) freePorts() {
	if p.portsUsed {
		for c := range p.cl {
			p.cl[c].writeUsed = [cluster.NumRSKinds]int{}
		}
		p.portsUsed = false
	}
}

// allStations is the open mask of a cluster with every station open.
const allStations = uint8(1)<<cluster.NumRSKinds - 1

// Invariant panics of steering and issue, built once like errLappedBooking.
// DESIGN.md §9 proves that none of them can fire.
var (
	errNoSteerTarget   = &core.InvariantError{Msg: "pipeline: issue-time steering found no cluster with an open station for the class"}
	errOpenStationFull = &core.InvariantError{Msg: "pipeline: issue-time steering found a station full or out of write ports under an open bit"}
	errLateOlderStore  = &core.InvariantError{Msg: "pipeline: a load issued before an older store's result was ready at its address"}
)

// steer is dispatch under issue-time steering. It builds its steering
// state, each cluster's budget and open mask, only in cycles where the head
// of the steering window is dispatch-ready: dispatchReady grows along the
// window, so otherwise nothing in it is. A class goes only to a cluster
// whose open mask shares a bit with the class's stations, so steerTarget
// always finds one and insertRS always succeeds; either failing is an
// invariant panic.
func (p *Pipeline) steer() {
	st := &p.st
	q := &p.steerQ
	if q.len() == 0 || st.e[uint32(q.front())].dispatchReady > p.now {
		return
	}
	// Write ports are all free at the top of the cycle, so a station is
	// open iff it is not full. anyOpen is the union over clusters: once it
	// is empty nothing more can dispatch this cycle.
	p.freePorts()
	var anyOpen uint8
	for c := range p.cl {
		cs := &p.cl[c]
		cs.budget = p.geom.Width
		cs.open = allStations &^ cs.full
		anyOpen |= cs.open
	}
	// Scan the steering window in age order; an instruction whose target
	// cluster is saturated does not block younger instructions bound for
	// other clusters. Dispatched entries become holes, squeezed out of the
	// scanned prefix afterwards.
	limit := 2 * p.geom.TotalWidth()
	dispatched := 0
	i := 0
	for ; i < q.len() && i < limit && anyOpen != 0; i++ {
		idx := uint32(q.at(i)) // queue membership implies liveness
		e := &st.e[idx]
		if e.dispatchReady > p.now {
			break
		}
		stations := classStations[e.class]
		if anyOpen&stations == 0 {
			continue // no cluster can take this class
		}
		c := p.steerTarget(e, stations)
		if c < 0 {
			panic(errNoSteerTarget)
		}
		cs := &p.cl[c]
		e.cluster = int32(c)
		if !p.insertRS(idx, cs) {
			panic(errOpenStationFull)
		}
		q.drop(i)
		dispatched++
		cs.budget--
		was := cs.open
		if rs := e.station; cs.budget <= 0 {
			cs.open = 0
		} else if cs.full&(1<<rs) != 0 || cs.writeUsed[rs] >= p.cfg.RS.WritePorts {
			cs.open &^= 1 << rs
		}
		if cs.open != was {
			anyOpen = 0
			for k := range p.cl {
				anyOpen |= p.cl[k].open
			}
		}
	}
	if dispatched > 0 {
		q.squeeze(i)
	}
}

// classStations is cluster.StationsFor as a station bit mask per class,
// matched against the per-cycle open masks of issue-time steering. Its bits
// in ascending order are StationsFor's order.
var classStations = func() (t [isa.NumClasses]uint8) {
	for class := range t {
		for _, rs := range cluster.StationsFor(isa.Class(class)) {
			t[class] |= 1 << rs
		}
	}
	return t
}()

// steerTarget implements issue-time steering: send the instruction to the
// cluster generating one of its in-flight inputs (preferring the input
// expected to arrive last), else balance load; at most Width instructions
// per cluster per cycle. stations is classStations for the instruction's
// class: a cluster is usable iff its open mask shares a bit with it. It
// returns -1 only when no cluster is usable.
func (p *Pipeline) steerTarget(e *inflight, stations uint8) int {
	st := &p.st
	// Prefer the producer whose value arrives later (the likely critical
	// input); both producers' clusters are known because dispatch is
	// in order.
	best := -1
	var bestTime int64 = -1
	for k := 0; k < 2; k++ {
		pid := e.prod[k]
		if pid == noID {
			continue
		}
		pe := &st.e[st.index(pid)]
		if pe.flags&fRetired != 0 || pe.cluster < 0 {
			continue
		}
		t := pe.resultAt
		if t == unknown {
			t = 1 << 60 // not yet issued: latest of all
		}
		if t > bestTime {
			bestTime = t
			best = int(pe.cluster)
		}
	}
	if best >= 0 && p.cl[best].open&stations != 0 {
		return best
	}
	// Fall back: least-occupied usable cluster (live is the cluster's
	// total station occupancy).
	target, bestOcc := -1, 1<<30
	for c := range p.cl {
		if cs := &p.cl[c]; cs.open&stations != 0 && cs.live < bestOcc {
			bestOcc, target = cs.live, c
		}
	}
	return target
}

// insertRS places the instruction in slot idx in the least-occupied station
// of cs that can hold its class and has an entry and a write port free,
// ties going to the lowest station, and reports whether one had.
func (p *Pipeline) insertRS(idx uint32, cs *clusterState) bool {
	e := &p.st.e[idx]
	best := -1
	bestCount := p.cfg.RS.Entries // a station holding Entries is full
	for m := classStations[e.class]; m != 0; m &= m - 1 {
		rs := bits.TrailingZeros8(m)
		if cs.count[rs] < bestCount && cs.writeUsed[rs] < p.cfg.RS.WritePorts {
			bestCount, best = cs.count[rs], rs
		}
	}
	if best < 0 {
		return false
	}
	e.station = int32(best)
	e.flags |= fInRS
	cs.count[best]++
	if cs.count[best] == p.cfg.RS.Entries {
		cs.full |= 1 << best
	}
	cs.writeUsed[best]++
	p.portsUsed = true
	pos := len(cs.ids)
	cs.ids = cs.ids[:pos+1] // within windowCap, so never past cap
	cs.ids[pos] = e.id(idx)
	e.rsSlot = int32(pos)
	cs.live++
	p.linkDeps(idx, e)
	return true
}

// linkDeps registers a just-dispatched RS entry with every dependency whose
// completion it must await: each register producer that has not issued yet
// (an intrusive waiter list on the producer), and — for loads — the
// store-disambiguation watermark if any older store is still unissued.
// When nothing is outstanding the entry resolves immediately.
func (p *Pipeline) linkDeps(idx uint32, e *inflight) {
	st := &p.st
	wait := int32(0)
	for k := 0; k < 2; k++ {
		pid := e.prod[k]
		if pid == noID {
			continue
		}
		pe := &st.e[st.index(pid)]
		if pe.resultAt == unknown {
			node := idx*2 + uint32(k)
			e.waiterNext[k] = pe.waiterHead
			pe.waiterHead = node + 1
			wait++
		}
	}
	if e.flags&fIsLoad != 0 {
		if b := e.barrier; b >= p.storeWatermark {
			slot := b & p.storeRingMask
			e.waitNext = p.loadWaitHead[slot]
			p.loadWaitHead[slot] = idx + 1
			wait++
		}
	}
	e.waitCount = wait
	if wait == 0 {
		p.resolve(idx, e)
	}
}

// --- issue / execute ---

// effFwd returns the forwarding latency from producer to consumer with the
// Figure 5 knobs applied.
//
//ctcp:inline
func (p *Pipeline) effFwd(prod, cons *inflight) int64 {
	if p.cfg.ZeroAllFwdLat {
		return 0
	}
	same := prod.group == cons.group
	if p.cfg.ZeroIntraTrace && same {
		return 0
	}
	if p.cfg.ZeroInterTrace && !same {
		return 0
	}
	return p.fwdTab[int(prod.cluster)*p.geom.Clusters+int(cons.cluster)]
}

// resolve computes the final ready cycle, critical source, and critical
// producer of the RS entry e in slot idx once every dependency is known.
// Every term is fixed by now — producer resultAt and cluster are set at the
// producer's issue, rfReady at rename — so this is exactly the value the
// per-entry readiness() recompute used to converge on at issue time,
// computed once instead of per cycle. An entry already due gets its
// ready-mask bit at once; one due later waits on the due list of its ready
// cycle, and issue sets its bit when that cycle comes.
func (p *Pipeline) resolve(idx uint32, e *inflight) {
	st := &p.st
	var t [2]int64
	var fwd [2]bool
	src := e.rec.Src
	present := [2]bool{src[0] != isa.NoReg, src[1] != isa.NoReg}
	for k := 0; k < 2; k++ {
		if !present[k] {
			t[k] = 0
			continue
		}
		pid := e.prod[k]
		if pid == noID {
			t[k] = e.rfReady
			continue
		}
		pe := &st.e[st.index(pid)]
		t[k] = pe.resultAt + p.effFwd(pe, e)
		fwd[k] = true
	}
	// Identify the critical (last-arriving) input.
	crit := core.CritNone
	switch {
	case present[0] && present[1]:
		if t[1] > t[0] {
			crit = core.CritRS2
		} else {
			crit = core.CritRS1
		}
	case present[0]:
		crit = core.CritRS1
	case present[1]:
		crit = core.CritRS2
	}
	ready := maxI64(t[0], t[1])
	if crit != core.CritNone {
		k := int(crit) - 1
		if fwd[k] {
			e.flags |= fCritFwd
			e.critProd = e.prod[k]
			if p.cfg.ZeroCritFwdLat {
				// Only the last-arriving forward becomes free.
				other := t[1-k]
				if !present[1-k] {
					other = 0
				}
				ready = maxI64(other, st.e[st.index(e.prod[k])].resultAt)
			}
		}
	}
	e.critSrc = uint8(crit)
	e.readyAt = ready
	e.flags |= fResolved
	if ready <= p.now {
		p.markReady(e)
	} else {
		p.fileDue(idx, e)
	}
}

// markReady sets the ready-mask bit of e, a resolved entry that is due.
//
//ctcp:inline
func (p *Pipeline) markReady(e *inflight) {
	cs := &p.cl[e.cluster]
	pos := int(e.rsSlot)
	cs.ready[pos>>6] |= 1 << uint(pos&63)
	cs.nReady++
}

// fileDue links e, the resolved entry in slot idx, onto the due list of its
// ready cycle, which is after now. Validate bounds no latency, so an entry
// due dueRing or more cycles ahead is parked on the farthest list, that of
// cycle now+dueRing-1, and filed again when that list drains.
//
//ctcp:inline
func (p *Pipeline) fileDue(idx uint32, e *inflight) {
	at := min(e.readyAt, p.now+dueRing-1)
	head := &p.due[at&(dueRing-1)]
	e.waitNext = *head
	*head = idx + 1
}

// drainDue empties the due list of the current cycle: each entry on it is
// due now and gets its ready-mask bit, at its current window position,
// except a parked one not yet due, which is filed again.
func (p *Pipeline) drainDue() {
	st := &p.st
	head := &p.due[p.now&(dueRing-1)]
	n := *head
	*head = 0
	for n != 0 {
		idx := n - 1
		e := &st.e[idx]
		n = e.waitNext
		if e.readyAt > p.now {
			p.fileDue(idx, e)
			continue
		}
		e.waitNext = 0
		p.markReady(e)
	}
}

// wakeWaiters delivers a just-issued producer's resultAt to every RS entry
// waiting on it; entries whose last dependency this was resolve immediately,
// so a consumer later in this cycle's issue scan can still issue this cycle.
// A producer without waiters returns at the inline check.
//
//ctcp:inline
func (p *Pipeline) wakeWaiters(e *inflight) {
	if e.waiterHead != 0 {
		p.wakeList(e)
	}
}

// wakeList is wakeWaiters for a producer with waiters.
func (p *Pipeline) wakeList(e *inflight) {
	st := &p.st
	for n := e.waiterHead; n != 0; {
		node := n - 1
		w := &st.e[node>>1]
		n = w.waiterNext[node&1]
		w.waiterNext[node&1] = 0
		w.waitCount--
		if w.waitCount == 0 {
			p.resolve(node>>1, w)
		}
	}
	e.waiterHead = 0
}

// storeIssued marks seq issued and advances the disambiguation watermark,
// waking loads whose barrier the watermark passes.
func (p *Pipeline) storeIssued(seq uint64) {
	st := &p.st
	p.storeRing[seq&p.storeRingMask] = true
	for p.storeWatermark < p.storeSeqNext && p.storeRing[p.storeWatermark&p.storeRingMask] {
		slot := p.storeWatermark & p.storeRingMask
		p.storeWatermark++
		for n := p.loadWaitHead[slot]; n != 0; {
			idx := n - 1
			l := &st.e[idx]
			n = l.waitNext
			l.waitNext = 0
			l.waitCount--
			if l.waitCount == 0 {
				p.resolve(idx, l)
			}
		}
		p.loadWaitHead[slot] = 0
	}
}

// freeFU returns a functional unit of cs that can take class this cycle, or
// -1 when all are busy.
//
//ctcp:inline
func (p *Pipeline) freeFU(cs *clusterState, class isa.Class) cluster.FUKind {
	for _, fu := range cluster.UnitsFor(class) {
		if cs.fuFree[fu] <= p.now {
			return fu
		}
	}
	return cluster.FUKind(-1)
}

// issue dispatches due reservation-station entries to free functional
// units. It first sets the ready-mask bits of the entries due this cycle
// (drainDue), so a mask holds exactly the resolved, unissued entries whose
// ready cycle has come: unresolved entries and entries not yet due cost the
// scan nothing, since whole 64-entry words of them are skipped with one
// load, and a cluster with no set bit is not scanned at all. The scan walks
// each cluster's mask in age order (bit order == age order).
func (p *Pipeline) issue() {
	if p.due[p.now&(dueRing-1)] != 0 {
		p.drainDue()
	}
	st := &p.st
	for c := range p.cl {
		cs := &p.cl[c]
		// Classes that already failed to find a free unit this cycle: FUs
		// only get busier within a cycle (issuing books one, nothing frees
		// one until the cycle advances), so a miss stays a miss and younger
		// same-class entries can skip the unit scan.
		var noFU uint32
		for w := 0; cs.nReady != 0 && w < len(cs.ready); w++ {
			m := cs.ready[w]
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				// Mask membership implies liveness; the generation check
				// stays on cross-record references, not ownership reads.
				e := &st.e[uint32(cs.ids[w<<6|b])]
				class := e.class
				if noFU&(1<<class) != 0 {
					continue
				}
				fu := p.freeFU(cs, class)
				if fu < 0 {
					noFU |= 1 << class
					continue
				}
				p.doIssue(e, cs, fu)
				// Re-read the word above the issued bit: issuing may have
				// resolved younger entries in it this very cycle (a store
				// unblocking a load), exactly as the per-entry recompute
				// would have observed on its way down the age order.
				m = cs.ready[w] &^ (1<<(uint(b)+1) - 1)
			}
		}
		// Compact only when the window is mostly holes (compaction preserves
		// age order, so the mask scan's issue order is unaffected by when it
		// happens). The length guard keeps small windows untouched; the 2×
		// guard amortizes the O(len) rebuild to O(1) per dispatch.
		if len(cs.ids) >= compactMin && 2*cs.live < len(cs.ids) {
			p.compact(cs)
		}
	}
}

// compact squeezes the holes out of cs's window, keeping age order, and
// rebuilds its ready mask: a bit for each resolved entry that is due, which
// is the set of bits the mask held. Entries on due lists are linked by slot,
// not window position, so the lists need no change.
func (p *Pipeline) compact(cs *clusterState) {
	st := &p.st
	keep := cs.ids[:0]
	for _, id := range cs.ids {
		if id == noID {
			continue
		}
		st.e[uint32(id)].rsSlot = int32(len(keep))
		keep = append(keep, id)
	}
	clear(cs.ids[len(keep):])
	cs.ids = keep
	clear(cs.ready)
	for pos, id := range keep {
		if e := &st.e[uint32(id)]; e.flags&fResolved != 0 && e.readyAt <= p.now {
			cs.ready[pos>>6] |= 1 << uint(pos&63)
		}
	}
}

func (p *Pipeline) doIssue(e *inflight, cs *clusterState, fu cluster.FUKind) {
	st := &p.st
	lat := cluster.LatencyFor(e.class)
	e.flags = (e.flags &^ fInRS) | fIssued
	cs.count[e.station]--
	cs.full &^= 1 << e.station
	// Leave a hole: clear the mask bit and detach the id so the slot skips
	// for free until the next compaction.
	pos := int(e.rsSlot)
	cs.ready[pos>>6] &^= 1 << uint(pos&63)
	cs.nReady--
	cs.ids[pos] = noID
	cs.live--
	cs.fuFree[fu] = p.now + int64(lat.Issue)

	p.recordInputStats(e)

	switch {
	case e.flags&fIsLoad != 0:
		p.S.Loads++
		addrDone := p.now + int64(lat.Exec)
		// Every older store has issued (the watermark let this load
		// resolve), and loads and stores share a one-cycle address stage,
		// so no older store's result is later than this load's address.
		forwarded := false
		for sid := e.prevStore; sid != noID; {
			s := &st.e[st.index(sid)]
			if s.flags&fRetired != 0 {
				break
			}
			if s.resultAt > addrDone {
				panic(errLateOlderStore)
			}
			if !forwarded && overlaps(&s.rec, &e.rec) {
				forwarded = true
			}
			sid = s.prevStore
		}
		if forwarded {
			p.S.StoreForwards++
			e.resultAt = addrDone + 1
		} else {
			e.resultAt = p.mem.Access(p.portTime(addrDone), e.rec.EA)
		}
	case e.flags&fIsStore != 0:
		p.S.Stores++
		e.resultAt = p.now + int64(lat.Exec)
		p.storeIssued(e.barrier)
	default:
		e.resultAt = p.now + int64(lat.Exec)
	}
	p.wakeWaiters(e)
}

func overlaps(store, load *emu.Committed) bool {
	sEnd := store.EA + uint64(store.Size)
	lEnd := load.EA + uint64(load.Size)
	return store.EA < lEnd && load.EA < sEnd
}

// portTime books a data-cache port at or after t and returns the cycle used.
func (p *Pipeline) portTime(t int64) int64 {
	if t <= p.now {
		t = p.now
	}
	return p.ports.book(t, p.now, p.cfg.Mem.Ports)
}

func (p *Pipeline) recordInputStats(e *inflight) {
	st := &p.st
	critSrc := core.CritSrc(e.critSrc)
	if critSrc == core.CritNone {
		return
	}
	critFwd := e.flags&fCritFwd != 0
	p.S.WithInputs++
	interTrace := false
	if critFwd {
		p.S.CritForwarded++
		cp := &st.e[st.index(e.critProd)]
		dist := int(p.distTab[int(cp.cluster)*p.geom.Clusters+int(e.cluster)])
		p.S.CritDistSum += uint64(dist)
		if dist == 0 {
			p.S.CritIntraCluster++
		}
		if cp.group != e.group {
			interTrace = true
			p.S.CritInterTrace++
		}
		switch critSrc {
		case core.CritRS1:
			p.S.CritFromRS1++
		case core.CritRS2:
			p.S.CritFromRS2++
		}
	} else {
		p.S.CritFromRF++
	}
	// Producer repeatability (Table 3): all forwarded inputs...
	var hist *pcStats
	for k := 0; k < 2; k++ {
		pid := e.prod[k]
		if pid == noID || e.rec.Src[k] == isa.NoReg {
			continue
		}
		pe := &st.e[st.index(pid)]
		p.S.FwdInputs++
		d := int(p.distTab[int(pe.cluster)*p.geom.Clusters+int(e.cluster)])
		p.S.FwdDistSum += uint64(d)
		if d == 0 {
			p.S.FwdIntraCluster++
		}
		if hist == nil {
			hist = p.pcHist.Ensure(e.rec.PC)
		}
		if hist.lastProd[k] != 0 {
			if k == 0 {
				p.S.RS1Seen++
				if hist.lastProd[k] == pe.rec.PC {
					p.S.RS1Repeat++
				}
			} else {
				p.S.RS2Seen++
				if hist.lastProd[k] == pe.rec.PC {
					p.S.RS2Repeat++
				}
			}
		}
		hist.lastProd[k] = pe.rec.PC
	}
	// ...and critical inter-trace inputs only. fCritFwd means the critical
	// source is a register with an in-flight producer, so the loop above
	// has looked hist up.
	if critFwd && interTrace {
		k := int(critSrc) - 1
		cp := &st.e[st.index(e.critProd)]
		if hist.lastCritInter[k] != 0 {
			if k == 0 {
				p.S.CritRS1InterSeen++
				if hist.lastCritInter[k] == cp.rec.PC {
					p.S.CritRS1InterRep++
				}
			} else {
				p.S.CritRS2InterSeen++
				if hist.lastCritInter[k] == cp.rec.PC {
					p.S.CritRS2InterRep++
				}
			}
		}
		hist.lastCritInter[k] = cp.rec.PC
	}
}

// --- retire ---

func (p *Pipeline) sbOccupied() int {
	keep := p.sbDrain[:0]
	for _, t := range p.sbDrain {
		if t > p.now {
			keep = append(keep, t)
		}
	}
	p.sbDrain = keep
	return len(p.sbDrain)
}

// retire drains completed instructions from the ROB head in program order,
// feeding the fill unit and the store buffer.
func (p *Pipeline) retire() {
	st := &p.st
	budget := p.cfg.RetireWidth
	for budget > 0 && p.robLen > 0 {
		idx := p.robHead
		e := &st.e[idx]
		if e.flags&fIssued == 0 || e.resultAt > p.now {
			break
		}
		if e.flags&fIsStore != 0 {
			if p.sbOccupied() >= p.cfg.StoreBuffer {
				p.S.SBFullStalls++
				break
			}
			drain := p.lastDrain + 1
			if drain < p.now {
				drain = p.now
			}
			p.lastDrain = drain
			done := p.mem.Access(p.portTime(drain), e.rec.EA)
			p.sbDrain = append(p.sbDrain, done)
		}
		e.flags |= fRetired
		if e.flags&fIsLoad != 0 {
			p.loadsInROB--
		}
		p.robHead = st.wrap(idx + 1)
		p.robLen--
		p.S.Retired++
		if e.flags&fFromTC != 0 {
			p.S.RetiredFromTC++
		}
		// Compose the ~200-byte RetireInfo directly in the fill unit's
		// pending slot (no scratch-then-copy). The slot stays readable after
		// CommitRetire even when it completes a trace, so the hook sees it.
		info := p.fill.RetireSlot()
		p.retireInfo(e, info)
		p.fill.CommitRetire()
		if p.cfg.RetireHook != nil {
			p.cfg.RetireHook(*info)
		}
		// Fields of this slot stay valid for younger consumers still
		// holding its id until the ring laps it. Rename-visible aliases are
		// severed here so no new references can form after retirement.
		id := e.id(idx)
		if d := e.rec.Dest; d != isa.NoReg && p.renameMap[d] == id {
			p.renameMap[d] = noID
		}
		if p.lastStore == id {
			p.lastStore = noID
		}
		p.lastRetireCycle = p.now
		budget--
	}
}

// retireInfo fills *info (the retire scratch slot) for the fill unit; the
// struct is ~200 bytes and built once per retired instruction, so it is
// written in place instead of returned by value.
func (p *Pipeline) retireInfo(e *inflight, info *core.RetireInfo) {
	// Field-by-field stores: *info may be a recycled pending slot holding a
	// stale record, so every field is written, but without the composite-
	// literal temporary (and its second ~200-byte copy) a struct assignment
	// compiles to.
	info.Rec = e.rec
	info.FromTC = e.flags&fFromTC != 0
	info.Profile = e.profile
	info.Cluster = int(e.cluster)
	info.FetchGroup = e.group
	info.CritSrc = core.CritSrc(e.critSrc)
	if e.flags&fCritFwd != 0 { // resolve sets it only with critProd
		cp := &p.st.e[p.st.index(e.critProd)]
		info.CritForwarded = true
		info.CritProducerPC = cp.rec.PC
		info.CritProducerSeq = cp.rec.Seq
		info.CritProducerCluster = int(cp.cluster)
		info.CritInterTrace = cp.group != e.group
		info.CritProducerProfile = cp.profile
	} else {
		info.CritForwarded = false
		info.CritProducerPC = 0
		info.CritProducerSeq = 0
		info.CritProducerCluster = 0
		info.CritInterTrace = false
		info.CritProducerProfile = trace.Profile{}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RunProgram is a convenience wrapper: it executes prog on a fresh emulator
// and replays the committed stream through a pipeline with cfg.
func RunProgram(prog *isa.Program, cfg Config) *Stats {
	m := emu.New(prog)
	p := New(m, cfg)
	return p.Run()
}
