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
// lives in the struct-of-arrays store, a ring allocated in fetch order (see
// soa.go); every reference between instructions — producer edges, the
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

	dispatchQ []infQueue // per-cluster in-order queues (slot-based)
	steerQ    infQueue   // global in-order queue (issue-time steering)

	// rsEntries is each cluster's reservation-station window in age order;
	// issued entries become noID holes (their mask bits are clear, so the
	// scan skips whole words of them for free) and the array is compacted
	// only when it is mostly holes, keeping compaction cost amortized O(1)
	// per dispatch. readyMask bit i set means rsEntries[c][i] is resolved
	// and unissued; rsLive counts the non-hole entries.
	rsEntries [][]infID
	readyMask [][]uint64
	rsLive    []int
	rsCount   [][]int   // per-cluster per-station occupancy
	rsFull    []uint8   // per-cluster mask of the stations rsCount has filled (bit rs)
	fuFree    [][]int64 // per-cluster per-FU next-free cycle

	renameMap  [isa.NumRegs]infID
	lastStore  infID
	loadsInROB int
	renamed    uint64 // total instructions renamed; nothing reads it, but Snapshot writes it

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

	pcHist pcmap.Map[pcStats]  // per-static-PC producer history (Table 3)
	dec    pcmap.Map[decEntry] // per-static-PC decode cache (derived, never serialized)

	lastRetireCycle int64

	// consumed counts committed records pulled from the stream, including
	// the one buffered in peekedRec. fetchLimit, when non-zero, pauses
	// fetch once consumed reaches it: the mechanism behind segmented RunTo
	// execution and drained-boundary snapshots.
	consumed   uint64
	fetchLimit uint64

	// scr groups the per-cycle scratch buffers that checkpointing
	// deliberately excludes: a snapshot never serializes them, and a
	// restored pipeline starts with the empty scratch Reset left.
	scr scratch

	S Stats
}

// scratch holds the pipeline's per-cycle transient state, segregated from
// the architectural and profile state that Snapshot must capture. At a
// drained boundary the per-cycle buffers are stale, so none of it carries
// information forward.
type scratch struct {
	// Per-cycle scratch, reused across cycles. writeUsed is the flattened
	// [cluster][station] write-port usage, stale from an earlier cycle
	// until dispatch clears it, which it does only when portsUsed says a
	// port was taken since the last clear; clusterBudget is the
	// per-cluster steering budget. open is issue-time steering's
	// per-cluster mask of the stations that can still take an instruction
	// this cycle (bit rs: not full, a write port left); a cluster whose
	// steering budget is spent has none. Steering builds clusterBudget and
	// open only in cycles where the head of the steering window is
	// dispatch-ready.
	writeUsed     []int
	portsUsed     bool
	clusterBudget []int
	open          []uint8
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
	if len(p.rsEntries) != n {
		p.dispatchQ = make([]infQueue, n)
		p.rsEntries = make([][]infID, n)
		p.readyMask = make([][]uint64, n)
		p.rsCount = make([][]int, n)
		p.fuFree = make([][]int64, n)
		for c := 0; c < n; c++ {
			p.rsCount[c] = make([]int, cluster.NumRSKinds)
			p.fuFree[c] = make([]int64, cluster.NumFUKinds)
		}
	}
	for c := 0; c < n; c++ {
		p.dispatchQ[c].reset()
		p.rsEntries[c] = p.rsEntries[c][:0]
		p.readyMask[c] = p.readyMask[c][:0]
		clear(p.rsCount[c])
		clear(p.fuFree[c])
	}
	p.rsLive = zeroed(p.rsLive, n)
	p.rsFull = zeroed(p.rsFull, n)
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
	if n := 2*cfg.ROBSize + 2*cfg.FetchWidth + max(cfg.FetchWidth, cfg.Trace.MaxLen); len(p.st.gen) != n {
		p.st.size(n)
	} else {
		p.st.reset()
	}
	p.robHead, p.robLen, p.fqLen = 0, 0, 0
	p.renameMap = [isa.NumRegs]infID{}
	p.lastStore = noID
	p.loadsInROB = 0
	p.renamed = 0

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
	p.dec.Reset()
	p.lastRetireCycle = 0
	p.consumed = 0
	p.fetchLimit = 0

	p.scr.writeUsed = zeroed(p.scr.writeUsed, n*int(cluster.NumRSKinds))
	p.scr.portsUsed = false
	p.scr.clusterBudget = zeroed(p.scr.clusterBudget, n)
	p.scr.open = zeroed(p.scr.open, n)
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

// Run drives the model until the stream is exhausted and the machine drains,
// then returns the collected statistics.
func (p *Pipeline) Run() *Stats {
	if p.cfg.MaxInsts != 0 {
		p.stream = &emu.LimitStream{S: p.stream, Budget: p.cfg.MaxInsts}
	}
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
// is exhausted. Between RunTo calls the pipeline sits at a drained trace
// boundary — ROB, fetch and dispatch queues empty — which is the only
// kind of point Snapshot accepts. Limits are cumulative across calls:
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
//
//ctcp:hotpath
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
// implementation heap-allocated a copy per instruction).
func (p *Pipeline) peek() (*emu.Committed, bool) {
	if p.havePeek {
		return &p.peekedRec, true
	}
	if p.streamDone || p.fetchPaused() {
		// A paused fetch is not stream exhaustion: the next RunTo segment
		// resumes pulling records exactly where this one stopped.
		return nil, false
	}
	if !p.stream.NextInto(&p.peekedRec) {
		p.streamDone = true
		return nil, false
	}
	p.consumed++
	p.havePeek = true
	return &p.peekedRec, true
}

// take consumes the peeked record; the pointer stays valid until the next
// peek, and newInflight copies it into the store before then.
func (p *Pipeline) take() *emu.Committed {
	p.havePeek = false
	return &p.peekedRec
}

// --- fetch ---

// fetch pulls one fetch group per cycle from the trace cache or icache path.
//
//ctcp:hotpath
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
			if p.st.rec[idx].IsTakenControl() {
				break // conventional fetch cannot pass a taken branch
			}
			expect = p.st.rec[idx].NextPC
		}
		p.S.ICGroupInsts += uint64(p.fqLen - queued)
	}
	if p.fqLen == queued {
		// Defensive: should not happen (the first record always matches).
		p.nextFetch = p.now + 1
		return
	}
	p.nextFetch = p.now + 1 + p.btbBubble
	p.btbBubble = 0
}

// newInflight allocates the ring's next slot for rec, which makes it the
// fetch queue's newest entry, and fills in its fetch-time state.
func (p *Pipeline) newInflight(rec *emu.Committed, fromTC bool, group uint64, cl int, prof trace.Profile, renameReady int64) uint32 {
	st := &p.st
	idx := st.alloc()
	p.fqLen++
	st.rec[idx] = *rec
	st.renameReady[idx] = renameReady
	// Whole-word flag store: reused slots are not zeroed (see alloc), so
	// this is the write that retires the previous tenant's bits.
	flags := uint16(0)
	if fromTC {
		flags = fFromTC
	}
	st.group[idx] = group
	st.cluster[idx] = int32(cl)
	st.profile[idx] = prof
	st.prod[idx] = [2]infID{}
	st.resultAt[idx] = unknown
	if p.cfg.Strategy.SteersAtIssue() {
		st.cluster[idx] = -1
	}
	d := p.dec.Ensure(rec.PC)
	if !d.valid {
		*d = decodeInst(rec.Inst)
	}
	class := d.class
	st.class[idx] = class
	st.dest[idx] = d.dest
	st.src[idx] = d.src
	st.ctrl[idx] = d.ctrl
	if class.IsLoad() {
		flags |= fIsLoad
	}
	if class.IsStore() {
		flags |= fIsStore
	}
	st.flags[idx] = flags
	return idx
}

// handleControl performs fetch-time prediction bookkeeping for a just-
// consumed control instruction and reports whether the fetch group must stop
// (misprediction or unpredictable target). The control kind comes from the
// decode cache (stamped by newInflight) instead of re-classifying the
// instruction word per dynamic instance.
func (p *Pipeline) handleControl(idx uint32, fromTC bool) bool {
	ctrl := p.st.ctrl[idx]
	if ctrl == ctrlNone {
		return false
	}
	rec := &p.st.rec[idx]
	switch ctrl {
	case ctrlCond:
		p.S.CondBranches++
		_, correct := p.bp.PredictAndTrainCond(rec.PC, rec.Taken)
		if !correct {
			p.S.Mispredicts++
			p.st.flags[idx] |= fMispredict
			p.pendingRedirect = p.st.id(idx)
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
	case ctrlBR:
		if !fromTC {
			if _, hit := p.bp.BTBLookup(rec.PC); !hit {
				p.S.BTBBubbles++
				p.btbBubble = int64(p.cfg.BTBMissBubble)
			}
			p.bp.BTBInsert(rec.PC, rec.NextPC)
		}
	case ctrlJSR, ctrlJMP:
		target, hit := p.bp.BTBLookup(rec.PC)
		p.bp.BTBInsert(rec.PC, rec.NextPC)
		if ctrl == ctrlJSR {
			p.bp.PushReturn(rec.PC + isa.PCStride)
		}
		if !hit || target != rec.NextPC {
			p.S.IndirectMiss++
			p.st.flags[idx] |= fMispredict
			p.pendingRedirect = p.st.id(idx)
			return true
		}
	case ctrlRET:
		target, ok := p.bp.PredictReturn()
		if !ok || target != rec.NextPC {
			p.S.IndirectMiss++
			p.st.flags[idx] |= fMispredict
			p.pendingRedirect = p.st.id(idx)
			return true
		}
	}
	return false
}

func (p *Pipeline) clearRedirect() {
	if p.pendingRedirect == noID {
		return
	}
	idx := p.st.index(p.pendingRedirect)
	if p.st.flags[idx]&fIssued != 0 && p.st.resultAt[idx] <= p.now {
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
//
//ctcp:hotpath
func (p *Pipeline) rename() {
	st := &p.st
	budget := p.cfg.FetchWidth
	for budget > 0 && p.fqLen > 0 {
		idx := st.wrap(p.robHead + uint32(p.robLen)) // the fetch queue's front
		if st.renameReady[idx] > p.now {
			break
		}
		if p.robLen >= p.cfg.ROBSize {
			p.S.ROBFullStalls++
			break
		}
		isLoad := st.flags[idx]&fIsLoad != 0
		if isLoad && p.loadsInROB >= p.cfg.LoadQueue {
			p.S.LoadQFullStalls++
			break
		}
		id := st.id(idx)
		for k, r := range st.src[idx] { // src cached at newInflight (decode cache)
			if r == isa.NoReg {
				continue
			}
			// A value whose producer has already completed by rename time is
			// read from the register file; only still-in-flight results are
			// caught from the bypass/forwarding network.
			if pid := p.renameMap[r]; pid != noID {
				pi := st.index(pid)
				if st.flags[pi]&fRetired == 0 &&
					(st.resultAt[pi] == unknown || st.resultAt[pi] > p.now) {
					st.prod[idx][k] = pid
				}
			}
		}
		st.rfReady[idx] = p.now + int64(p.cfg.RenameStages+p.cfg.RFLat)
		st.dispatchReady[idx] = p.now + int64(p.cfg.RenameStages+p.cfg.SteerStages)
		if d := st.dest[idx]; d != isa.NoReg {
			p.renameMap[d] = id
		}
		st.prevStore[idx] = p.lastStore
		if st.flags[idx]&fIsStore != 0 {
			p.lastStore = id
			seq := p.storeSeqNext
			p.storeSeqNext++
			st.barrier[idx] = seq
			p.storeRing[seq&p.storeRingMask] = false
		} else if isLoad {
			// The newest older store's seq: every store younger than it has
			// a larger seq, so the watermark compare covers the whole chain.
			st.barrier[idx] = p.storeSeqNext - 1
		}
		if isLoad {
			p.loadsInROB++
		}
		p.fqLen-- // the fetch queue's front becomes the ROB's tail
		p.robLen++
		p.renamed++
		if p.cfg.Strategy.SteersAtIssue() {
			p.steerQ.push(id)
		} else {
			p.dispatchQ[st.cluster[idx]].push(id)
		}
		budget--
	}
}

// --- dispatch (into reservation stations) ---

// wu indexes the flattened per-cycle [cluster][station] write-port scratch.
func (p *Pipeline) wu(c int, st cluster.RSKind) *int {
	return &p.scr.writeUsed[c*int(cluster.NumRSKinds)+int(st)]
}

// dispatch moves renamed instructions into reservation stations, applying
// the configured steering strategy and write-port limits.
//
//ctcp:hotpath
func (p *Pipeline) dispatch() {
	if p.cfg.Strategy.SteersAtIssue() {
		p.steer()
		return
	}
	st := &p.st
	p.freePorts()
	for c := 0; c < p.geom.Clusters; c++ {
		n := 0
		for n < p.geom.Width && p.dispatchQ[c].len() > 0 {
			idx := uint32(p.dispatchQ[c].front())
			if st.dispatchReady[idx] > p.now {
				break
			}
			if !p.insertRS(idx, c) {
				break
			}
			p.dispatchQ[c].popFront()
			n++
		}
	}
}

// freePorts frees every write port for this cycle's dispatch, clearing the
// counts only when a port was taken since they were last cleared.
func (p *Pipeline) freePorts() {
	if p.scr.portsUsed {
		clear(p.scr.writeUsed)
		p.scr.portsUsed = false
	}
}

// allStations is the open mask of a cluster with every station open.
const allStations = uint8(1)<<cluster.NumRSKinds - 1

// steer is dispatch under issue-time steering. It builds its steering
// state only in cycles where the head of the steering window is
// dispatch-ready: dispatchReady grows along the window, so otherwise
// nothing in it is.
//
//ctcp:hotpath
func (p *Pipeline) steer() {
	st := &p.st
	q := &p.steerQ
	if q.len() == 0 || st.dispatchReady[uint32(q.front())] > p.now {
		return
	}
	// Write ports are all free at the top of the cycle, so a station is
	// open iff it is not full. anyOpen is the union over clusters: once it
	// is empty nothing more can dispatch this cycle.
	p.freePorts()
	var anyOpen uint8
	for c := range p.scr.open {
		p.scr.clusterBudget[c] = p.geom.Width
		p.scr.open[c] = allStations &^ p.rsFull[c]
		anyOpen |= p.scr.open[c]
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
		if st.dispatchReady[idx] > p.now {
			break
		}
		stations := classStations[st.class[idx]]
		if anyOpen&stations == 0 {
			continue // no cluster can take this class
		}
		c := p.steerTarget(idx, stations)
		if c < 0 {
			continue
		}
		st.cluster[idx] = int32(c)
		if !p.insertRS(idx, c) {
			st.cluster[idx] = -1
			continue
		}
		q.drop(i)
		dispatched++
		p.scr.clusterBudget[c]--
		was := p.scr.open[c]
		if rs := cluster.RSKind(st.station[idx]); p.scr.clusterBudget[c] <= 0 {
			p.scr.open[c] = 0
		} else if p.rsFull[c]&(1<<rs) != 0 || *p.wu(c, rs) >= p.cfg.RS.WritePorts {
			p.scr.open[c] &^= 1 << rs
		}
		if p.scr.open[c] != was {
			anyOpen = 0
			for _, m := range p.scr.open {
				anyOpen |= m
			}
		}
	}
	if dispatched > 0 {
		q.squeeze(i)
	}
}

// classStations is cluster.StationsFor as a station bit mask per class,
// matched against the per-cycle open masks of issue-time steering.
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
// class: a cluster is usable iff its open mask shares a bit with it.
func (p *Pipeline) steerTarget(idx uint32, stations uint8) int {
	st := &p.st
	open := p.scr.open
	// Prefer the producer whose value arrives later (the likely critical
	// input); both producers' clusters are known because dispatch is
	// in order.
	best := -1
	var bestTime int64 = -1
	for k := 0; k < 2; k++ {
		pid := st.prod[idx][k]
		if pid == noID {
			continue
		}
		pi := st.index(pid)
		if st.flags[pi]&fRetired != 0 || st.cluster[pi] < 0 {
			continue
		}
		t := st.resultAt[pi]
		if t == unknown {
			t = 1 << 60 // not yet issued: latest of all
		}
		if t > bestTime {
			bestTime = t
			best = int(st.cluster[pi])
		}
	}
	if best >= 0 && open[best]&stations != 0 {
		return best
	}
	// Fall back: least-occupied usable cluster (rsLive is the cluster's
	// total station occupancy).
	target, bestOcc := -1, 1<<30
	for c, m := range open {
		if m&stations != 0 && p.rsLive[c] < bestOcc {
			bestOcc, target = p.rsLive[c], c
		}
	}
	return target
}

func (p *Pipeline) insertRS(idx uint32, c int) bool {
	st := &p.st
	stations := cluster.StationsFor(st.class[idx])
	best := cluster.RSKind(-1)
	bestCount := 1 << 30
	for _, rs := range stations {
		if p.rsCount[c][rs] >= p.cfg.RS.Entries || *p.wu(c, rs) >= p.cfg.RS.WritePorts {
			continue
		}
		if p.rsCount[c][rs] < bestCount {
			bestCount = p.rsCount[c][rs]
			best = rs
		}
	}
	if best < 0 {
		return false
	}
	st.station[idx] = int32(best)
	st.flags[idx] |= fInRS
	p.rsCount[c][best]++
	if p.rsCount[c][best] == p.cfg.RS.Entries {
		p.rsFull[c] |= 1 << best
	}
	*p.wu(c, best)++
	p.scr.portsUsed = true
	pos := len(p.rsEntries[c])
	p.rsEntries[c] = append(p.rsEntries[c], st.id(idx))
	st.rsSlot[idx] = int32(pos)
	p.rsLive[c]++
	if pos>>6 >= len(p.readyMask[c]) {
		p.readyMask[c] = append(p.readyMask[c], 0)
	}
	p.linkDeps(idx)
	return true
}

// linkDeps registers a just-dispatched RS entry with every dependency whose
// completion it must await: each register producer that has not issued yet
// (an intrusive waiter list on the producer), and — for loads — the
// store-disambiguation watermark if any older store is still unissued.
// When nothing is outstanding the entry resolves immediately.
//
//ctcp:hotpath
func (p *Pipeline) linkDeps(idx uint32) {
	st := &p.st
	wait := int32(0)
	for k := 0; k < 2; k++ {
		pid := st.prod[idx][k]
		if pid == noID {
			continue
		}
		pi := st.index(pid)
		if st.resultAt[pi] == unknown {
			node := idx*2 + uint32(k)
			st.waiterNext[node] = st.waiterHead[pi]
			st.waiterHead[pi] = node + 1
			wait++
		}
	}
	if st.flags[idx]&fIsLoad != 0 {
		if b := st.barrier[idx]; b >= p.storeWatermark {
			slot := b & p.storeRingMask
			st.loadNext[idx] = p.loadWaitHead[slot]
			p.loadWaitHead[slot] = idx + 1
			wait++
		}
	}
	st.waitCount[idx] = wait
	if wait == 0 {
		p.resolve(idx)
	}
}

// --- issue / execute ---

// effFwd returns the forwarding latency from producer to consumer with the
// Figure 5 knobs applied.
func (p *Pipeline) effFwd(prod, cons uint32) int64 {
	if p.cfg.ZeroAllFwdLat {
		return 0
	}
	same := p.st.group[prod] == p.st.group[cons]
	if p.cfg.ZeroIntraTrace && same {
		return 0
	}
	if p.cfg.ZeroInterTrace && !same {
		return 0
	}
	return p.fwdTab[int(p.st.cluster[prod])*p.geom.Clusters+int(p.st.cluster[cons])]
}

// resolve computes an RS entry's final ready cycle, critical source, and
// critical producer once every dependency is known, then sets the entry's
// ready-mask bit. Every term is fixed by now — producer resultAt and
// cluster are set at the producer's issue, rfReady at rename — so this is
// exactly the value the per-entry readiness() recompute used to converge
// on at issue time, computed once instead of per cycle.
//
//ctcp:hotpath
func (p *Pipeline) resolve(idx uint32) {
	st := &p.st
	var t [2]int64
	var fwd [2]bool
	src := st.src[idx]
	present := [2]bool{src[0] != isa.NoReg, src[1] != isa.NoReg}
	for k := 0; k < 2; k++ {
		if !present[k] {
			t[k] = 0
			continue
		}
		pid := st.prod[idx][k]
		if pid == noID {
			t[k] = st.rfReady[idx]
			continue
		}
		pi := st.index(pid)
		t[k] = st.resultAt[pi] + p.effFwd(pi, idx)
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
			st.flags[idx] |= fCritFwd
			st.critProd[idx] = st.prod[idx][k]
			if p.cfg.ZeroCritFwdLat {
				// Only the last-arriving forward becomes free.
				other := t[1-k]
				if !present[1-k] {
					other = 0
				}
				ready = maxI64(other, st.resultAt[st.index(st.prod[idx][k])])
			}
		}
	}
	st.critSrc[idx] = uint8(crit)
	st.readyAt[idx] = ready
	st.flags[idx] |= fResolved
	pos := int(st.rsSlot[idx])
	p.readyMask[st.cluster[idx]][pos>>6] |= 1 << uint(pos&63)
}

// wakeWaiters delivers a just-issued producer's resultAt to every RS entry
// waiting on it; entries whose last dependency this was resolve immediately,
// so a consumer later in this cycle's issue scan can still issue this cycle.
//
//ctcp:hotpath
func (p *Pipeline) wakeWaiters(idx uint32) {
	st := &p.st
	for n := st.waiterHead[idx]; n != 0; {
		node := n - 1
		n = st.waiterNext[node]
		st.waiterNext[node] = 0
		ci := node >> 1
		st.waitCount[ci]--
		if st.waitCount[ci] == 0 {
			p.resolve(ci)
		}
	}
	st.waiterHead[idx] = 0
}

// storeIssued marks seq issued and advances the disambiguation watermark,
// waking loads whose barrier the watermark passes.
//
//ctcp:hotpath
func (p *Pipeline) storeIssued(seq uint64) {
	st := &p.st
	p.storeRing[seq&p.storeRingMask] = true
	for p.storeWatermark < p.storeSeqNext && p.storeRing[p.storeWatermark&p.storeRingMask] {
		slot := p.storeWatermark & p.storeRingMask
		p.storeWatermark++
		for n := p.loadWaitHead[slot]; n != 0; {
			li := n - 1
			n = st.loadNext[li]
			st.loadNext[li] = 0
			st.waitCount[li]--
			if st.waitCount[li] == 0 {
				p.resolve(li)
			}
		}
		p.loadWaitHead[slot] = 0
	}
}

func (p *Pipeline) freeFU(c int, class isa.Class) cluster.FUKind {
	for _, fu := range cluster.UnitsFor(class) {
		if p.fuFree[c][fu] <= p.now {
			return fu
		}
	}
	return cluster.FUKind(-1)
}

// issue dispatches due reservation-station entries to free functional
// units. The scan walks each cluster's ready bitmask in age order (bit
// order == age order): unresolved entries cost nothing, since whole 64-entry
// words of them are skipped with one load, and a resolved entry that is not
// yet due costs one readyAt load per cycle.
//
//ctcp:hotpath
func (p *Pipeline) issue() {
	st := &p.st
	for c := 0; c < p.geom.Clusters; c++ {
		entries := p.rsEntries[c]
		mask := p.readyMask[c]
		// Classes that already failed to find a free unit this cycle: FUs
		// only get busier within a cycle (issuing books one, nothing frees
		// one until the cycle advances), so a miss stays a miss and younger
		// same-class entries can skip the unit scan.
		var noFU uint32
		for w := 0; w < len(mask); w++ {
			m := mask[w]
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				// Mask membership implies liveness; the generation check
				// stays on cross-record references, not ownership reads.
				idx := uint32(entries[w<<6|b])
				if st.readyAt[idx] > p.now {
					continue
				}
				class := st.class[idx]
				if noFU&(1<<class) != 0 {
					continue
				}
				fu := p.freeFU(c, class)
				if fu < 0 {
					noFU |= 1 << class
					continue
				}
				p.doIssue(idx, c, fu)
				// Re-read the word above the issued bit: issuing may have
				// resolved younger entries in it this very cycle (a store
				// unblocking a load), exactly as the per-entry recompute
				// would have observed on its way down the age order.
				m = mask[w] &^ (1<<(uint(b)+1) - 1)
			}
		}
		// Compact only when the window is mostly holes (compaction preserves
		// age order, so the mask scan's issue order is unaffected by when it
		// happens). The length guard keeps small windows untouched; the 2×
		// guard amortizes the O(len) rebuild to O(1) per dispatch.
		if len(entries) >= 64 && 2*p.rsLive[c] < len(entries) {
			keep := entries[:0]
			for _, id := range entries {
				if id == noID {
					continue
				}
				st.rsSlot[uint32(id)] = int32(len(keep))
				keep = append(keep, id)
			}
			for i := len(keep); i < len(entries); i++ {
				entries[i] = noID
			}
			p.rsEntries[c] = keep
			for i := range mask {
				mask[i] = 0
			}
			for pos, id := range keep {
				if st.flags[uint32(id)]&fResolved != 0 {
					mask[pos>>6] |= 1 << uint(pos&63)
				}
			}
		}
	}
}

func (p *Pipeline) doIssue(idx uint32, c int, fu cluster.FUKind) {
	st := &p.st
	lat := cluster.LatencyFor(st.class[idx])
	st.flags[idx] = (st.flags[idx] &^ fInRS) | fIssued
	p.rsCount[c][st.station[idx]]--
	p.rsFull[c] &^= 1 << st.station[idx]
	// Leave a hole: clear the mask bit and detach the id so the slot skips
	// for free until the next compaction.
	pos := int(st.rsSlot[idx])
	p.readyMask[c][pos>>6] &^= 1 << uint(pos&63)
	p.rsEntries[c][pos] = noID
	p.rsLive[c]--
	p.fuFree[c][fu] = p.now + int64(lat.Issue)

	p.recordInputStats(idx)

	switch {
	case st.flags[idx]&fIsLoad != 0:
		p.S.Loads++
		addrDone := p.now + int64(lat.Exec)
		barrier := addrDone
		fwdStore := uint32(0)
		haveFwd := false
		for sid := st.prevStore[idx]; sid != noID; {
			si := st.index(sid)
			if st.flags[si]&fRetired != 0 {
				break
			}
			if st.resultAt[si] > barrier {
				barrier = st.resultAt[si]
			}
			if !haveFwd && overlaps(&st.rec[si], &st.rec[idx]) {
				fwdStore, haveFwd = si, true
			}
			sid = st.prevStore[si]
		}
		if haveFwd {
			p.S.StoreForwards++
			st.resultAt[idx] = maxI64(barrier, st.resultAt[fwdStore]) + 1
		} else {
			start := p.portTime(barrier)
			st.resultAt[idx] = p.mem.Access(start, st.rec[idx].EA)
		}
	case st.flags[idx]&fIsStore != 0:
		p.S.Stores++
		st.resultAt[idx] = p.now + int64(lat.Exec)
		p.storeIssued(st.barrier[idx])
	default:
		st.resultAt[idx] = p.now + int64(lat.Exec)
	}
	p.wakeWaiters(idx)
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
	return p.ports.book(t, p.cfg.Mem.Ports)
}

func (p *Pipeline) recordInputStats(idx uint32) {
	st := &p.st
	critSrc := core.CritSrc(st.critSrc[idx])
	if critSrc == core.CritNone {
		return
	}
	critFwd := st.flags[idx]&fCritFwd != 0
	p.S.WithInputs++
	interTrace := false
	if critFwd {
		p.S.CritForwarded++
		pi := st.index(st.critProd[idx])
		dist := int(p.distTab[int(st.cluster[pi])*p.geom.Clusters+int(st.cluster[idx])])
		p.S.CritDistSum += uint64(dist)
		if dist == 0 {
			p.S.CritIntraCluster++
		}
		if st.group[pi] != st.group[idx] {
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
	prod := st.prod[idx]
	for k := 0; k < 2; k++ {
		pid := prod[k]
		if pid == noID || st.src[idx][k] == isa.NoReg {
			continue
		}
		pi := st.index(pid)
		p.S.FwdInputs++
		d := int(p.distTab[int(st.cluster[pi])*p.geom.Clusters+int(st.cluster[idx])])
		p.S.FwdDistSum += uint64(d)
		if d == 0 {
			p.S.FwdIntraCluster++
		}
		if hist == nil {
			hist = p.pcHist.Ensure(st.rec[idx].PC)
		}
		if hist.lastProd[k] != 0 {
			if k == 0 {
				p.S.RS1Seen++
				if hist.lastProd[k] == st.rec[pi].PC {
					p.S.RS1Repeat++
				}
			} else {
				p.S.RS2Seen++
				if hist.lastProd[k] == st.rec[pi].PC {
					p.S.RS2Repeat++
				}
			}
		}
		hist.lastProd[k] = st.rec[pi].PC
	}
	// ...and critical inter-trace inputs only.
	if critFwd && interTrace {
		k := int(critSrc) - 1
		cp := st.index(st.critProd[idx])
		if hist == nil {
			hist = p.pcHist.Ensure(st.rec[idx].PC)
		}
		if hist.lastCritInter[k] != 0 {
			if k == 0 {
				p.S.CritRS1InterSeen++
				if hist.lastCritInter[k] == st.rec[cp].PC {
					p.S.CritRS1InterRep++
				}
			} else {
				p.S.CritRS2InterSeen++
				if hist.lastCritInter[k] == st.rec[cp].PC {
					p.S.CritRS2InterRep++
				}
			}
		}
		hist.lastCritInter[k] = st.rec[cp].PC
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
//
//ctcp:hotpath
func (p *Pipeline) retire() {
	st := &p.st
	budget := p.cfg.RetireWidth
	for budget > 0 && p.robLen > 0 {
		idx := p.robHead
		if st.flags[idx]&fIssued == 0 || st.resultAt[idx] > p.now {
			break
		}
		if st.flags[idx]&fIsStore != 0 {
			if p.sbOccupied() >= p.cfg.StoreBuffer {
				p.S.SBFullStalls++
				break
			}
			drain := p.lastDrain + 1
			if drain < p.now {
				drain = p.now
			}
			p.lastDrain = drain
			done := p.mem.Access(p.portTime(drain), st.rec[idx].EA)
			p.sbDrain = append(p.sbDrain, done)
		}
		st.flags[idx] |= fRetired
		if st.flags[idx]&fIsLoad != 0 {
			p.loadsInROB--
		}
		p.robHead = st.wrap(idx + 1)
		p.robLen--
		p.S.Retired++
		if st.flags[idx]&fFromTC != 0 {
			p.S.RetiredFromTC++
		}
		// Compose the ~200-byte RetireInfo directly in the fill unit's
		// pending slot (no scratch-then-copy). The slot stays readable after
		// CommitRetire even when it completes a trace, so the hook sees it.
		info := p.fill.RetireSlot()
		p.retireInfo(idx, info)
		p.fill.CommitRetire()
		if p.cfg.RetireHook != nil {
			p.cfg.RetireHook(*info)
		}
		// Fields of this slot stay valid for younger consumers still
		// holding its id until the ring laps it. Rename-visible aliases are
		// severed here so no new references can form after retirement.
		id := st.id(idx)
		if d := st.dest[idx]; d != isa.NoReg && p.renameMap[d] == id {
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
func (p *Pipeline) retireInfo(idx uint32, info *core.RetireInfo) {
	st := &p.st
	// Field-by-field stores: *info may be a recycled pending slot holding a
	// stale record, so every field is written, but without the composite-
	// literal temporary (and its second ~200-byte copy) a struct assignment
	// compiles to.
	info.Rec = st.rec[idx]
	info.Src = st.src[idx]
	info.Dest = st.dest[idx]
	info.FromTC = st.flags[idx]&fFromTC != 0
	info.Profile = st.profile[idx]
	info.Cluster = int(st.cluster[idx])
	info.FetchGroup = st.group[idx]
	info.CritSrc = core.CritSrc(st.critSrc[idx])
	if st.flags[idx]&fCritFwd != 0 && st.critProd[idx] != noID {
		cp := st.index(st.critProd[idx])
		info.CritForwarded = true
		info.CritProducerPC = st.rec[cp].PC
		info.CritProducerSeq = st.rec[cp].Seq
		info.CritProducerCluster = int(st.cluster[cp])
		info.CritInterTrace = st.group[cp] != st.group[idx]
		info.CritProducerProfile = st.profile[cp]
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
