// Package sample implements region-parallel sampled simulation: a fast
// functional-only pass over the program drops architectural checkpoints at
// fixed instruction intervals, a bounded worker pool simulates a detailed
// window from each checkpoint in parallel on the cycle model, and the
// per-region measurements merge into a whole-program estimate.
//
// The speed comes from three directions at once. Fast-forwarding runs the
// emulator alone — orders of magnitude cheaper per instruction than the
// cycle model — and the detailed windows, which dominate the remaining
// cost, are embarrassingly parallel because each starts from its own
// checkpoint. The forward pass also overlaps the windows: it hands each
// region to the pool as soon as the region's span is known, so the entry
// region starts after one interval of emulation rather than after the
// whole program. Each window begins with cold microarchitectural state
// (empty predictor, caches, and trace cache), so the estimate carries the
// usual cold-start bias of checkpoint sampling; shorter intervals and
// longer windows shrink it. The merged result is deterministic: region
// order is fixed by the schedule, not by worker completion order.
package sample

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
)

// Options configures a sampled run.
type Options struct {
	// Interval is the spacing, in committed instructions, between region
	// starts. Required.
	Interval uint64
	// Detail is the number of instructions simulated in detail from each
	// region start (0 means the whole interval; values above Interval are
	// clamped to it). When Detail < Interval the measured cycles are scaled
	// up to cover the skipped remainder of the region.
	Detail uint64
	// Warmup is the number of instructions at the head of each detailed
	// window that only warm the cold microarchitectural state (caches,
	// predictor, trace cache): they are simulated in detail but excluded
	// from the cycle measurement the estimate scales up. Values that would
	// leave no measured instructions are clamped to half the window.
	// Region 0 is never warmed: its checkpoint is the program entry, where
	// cold microarchitectural state is exact, and measuring that region
	// cold is what lets the estimate reproduce the real run's one-time
	// warm-up ramp instead of averaging it away.
	Warmup uint64
	// Workers bounds the detailed-simulation pool (0 means GOMAXPROCS).
	Workers int
	// MaxInsts is the total instruction budget to cover. Required.
	MaxInsts uint64
	// OnRegion, when non-nil, is called once per completed detailed window
	// with the number of regions finished so far and the planned schedule
	// length, ceil(MaxInsts/Interval). Windows start while the forward pass
	// is still running, so the final region count is not known yet: a
	// program that halts early finishes with fewer regions than total. It
	// fires from worker goroutines (concurrently, completion order) and must
	// be safe for concurrent use; the merged Result stays deterministic
	// regardless.
	OnRegion func(done, total int)
}

// Region is one detailed window's measurement.
type Region struct {
	Index      int
	StartInst  uint64 // committed instructions before the window
	SpanInsts  uint64 // instructions the region represents
	WarmInsts  uint64 // warmup instructions simulated but not measured
	WarmCycles int64
	Insts      uint64 // measured instructions simulated in detail
	Cycles     int64  // measured detailed-simulation cycles
	EstCycles  float64
}

// IPC returns the region's detailed instructions per cycle.
func (r Region) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Result is the merged whole-program estimate.
type Result struct {
	Regions         []Region
	TotalInsts      uint64
	DetailedInsts   uint64
	DetailedCycles  int64
	EstimatedCycles float64
	// Stats sums every counter across the detailed windows; it covers only
	// the instructions simulated in detail.
	Stats pipeline.Stats
}

// IPC returns the sampled estimate of whole-program IPC.
func (res *Result) IPC() float64 {
	if res.EstimatedCycles == 0 {
		return 0
	}
	return float64(res.TotalInsts) / res.EstimatedCycles
}

// Run performs a sampled simulation of prog under cfg.
func Run(prog *isa.Program, cfg pipeline.Config, opts Options) (*Result, error) {
	if opts.Interval == 0 {
		return nil, fmt.Errorf("sample: Interval must be positive")
	}
	if opts.MaxInsts == 0 {
		return nil, fmt.Errorf("sample: MaxInsts must be positive")
	}
	// Every worker's Pipeline.Reset would panic on a bad cfg; fail once, up
	// front, before any emulation.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sample: %w", err)
	}
	detail := opts.Detail
	if detail == 0 || detail > opts.Interval {
		detail = opts.Interval
	}
	// planned is the schedule length; a program that halts early produces
	// fewer regions.
	planned := int(min((opts.MaxInsts-1)/opts.Interval+1, math.MaxInt))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, planned)
	cfg.MaxInsts = 0     // budgets are per region (runRegion sets each), not global
	cfg.RetireHook = nil // per-region pipelines must not feed shared observers

	// Detailed windows run while the forward pass produces them. The buffer
	// holds one job per worker, which bounds the checkpoints alive at once.
	// Their buffers circulate: a worker hands its checkpoint back through
	// free once the region's state is restored and verified, and the forward
	// pass encodes a later checkpoint into it.
	jobs := make(chan job, workers)
	free := make(chan []byte, workers+1)
	var wg sync.WaitGroup
	var completed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := worker{m: emu.New(prog), p: new(pipeline.Pipeline), free: free}
			for j := range jobs {
				det, warm := detail, opts.Warmup
				if j.idx == 0 {
					// The entry region is special: its cold state is the
					// true initial state, and the warm-up ramp it measures
					// is nonlinear, so it is simulated whole — no warmup to
					// discard, no scaling to extrapolate the ramp.
					det, warm = j.span, 0
				}
				j.out.reg, j.out.stats, j.out.err = wk.runRegion(cfg, j.ckpt, j.start, j.span, det, warm)
				j.out.reg.Index = j.idx
				if opts.OnRegion != nil {
					opts.OnRegion(int(completed.Add(1)), planned)
				}
			}
		}()
	}
	slots, total, err := forward(prog, opts, jobs, free)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Each region's result sits in its own slot, so the merge is
	// independent of completion order.
	res := &Result{Regions: make([]Region, len(slots)), TotalInsts: total}
	for idx, s := range slots {
		if s.err != nil {
			return nil, fmt.Errorf("sample: region %d (inst %d): %w", idx, s.reg.StartInst, s.err)
		}
		res.Regions[idx] = s.reg
		res.DetailedInsts += s.reg.WarmInsts + s.reg.Insts
		res.DetailedCycles += s.reg.WarmCycles + s.reg.Cycles
		res.EstimatedCycles += s.reg.EstCycles
		snap.AddCounters(&res.Stats, s.stats)
	}
	return res, nil
}

// job is one region handed from the forward pass to the worker pool.
type job struct {
	idx         int
	start, span uint64
	ckpt        []byte
	out         *slot
}

// slot is one region's outcome, written by the worker that simulated it.
type slot struct {
	reg   Region
	stats *pipeline.Stats
	err   error
}

// forward is the functional pass: the emulator alone, snapshotting the
// architectural state at each region start and executing the region's
// span. A region is sent to jobs as soon as its span is known, because the
// span sets its detailed budget and scales its estimate. Each checkpoint is
// encoded into a buffer a worker has handed back on free when one is
// waiting. forward closes jobs on every return, so the workers drain and
// exit even after a checkpoint error. It returns the regions' slots in
// schedule order and the instructions executed.
func forward(prog *isa.Program, opts Options, jobs chan<- job, free <-chan []byte) (slots []*slot, executed uint64, err error) {
	defer close(jobs)
	m := emu.New(prog)
	var rec emu.Committed
	prev := 0 // the previous checkpoint's size
	for executed < opts.MaxInsts {
		span := min(opts.Interval, opts.MaxInsts-executed)
		var buf []byte
		select {
		case buf = <-free:
		default:
		}
		// The memory image rarely shrinks between checkpoints, so the
		// previous one plus an eighth sizes this one without the writer
		// regrowing its buffer step by step mid-encoding.
		w := snap.NewWriterBuffer(slices.Grow(buf[:0], max(prev+prev/8, 4096)))
		m.Snapshot(w)
		ckpt, err := w.Finish()
		if err != nil {
			return nil, 0, fmt.Errorf("sample: checkpoint at inst %d: %w", executed, err)
		}
		prev = len(ckpt)
		var n uint64
		for n < span && m.NextInto(&rec) {
			n++
		}
		if n == 0 {
			// The program halted exactly at the boundary: the checkpoint
			// stands for nothing.
			break
		}
		out := new(slot)
		slots = append(slots, out)
		jobs <- job{idx: len(slots) - 1, start: executed, span: n, ckpt: ckpt, out: out}
		executed += n
		if n < span {
			break
		}
	}
	return slots, executed, nil
}

// worker is one detailed-simulation goroutine's machine, reused for every
// region it runs: each region's checkpoint is restored into the emulator
// (Restore overwrites all architectural state) and the pipeline is Reset to
// the cold state New builds, so a region's result does not depend on which
// worker ran it or what that worker ran before.
type worker struct {
	m    *emu.Machine
	p    *pipeline.Pipeline
	free chan<- []byte // where restored checkpoints go back (nil: dropped)
}

// runRegion restores one architectural checkpoint into the worker's
// emulator and simulates up to detail instructions on a cold cycle model,
// optionally excluding a warmup prefix from the measurement. A panic in the
// model becomes the region's *pipeline.SimError: from a worker goroutine,
// where no caller's recover reaches, it would kill the process. The next
// Reset clears the abandoned pipeline.
func (wk *worker) runRegion(cfg pipeline.Config, ckpt []byte, start, span, detail, warm uint64) (reg Region, s *pipeline.Stats, err error) {
	defer pipeline.Recover(&err)
	reg = Region{StartInst: start, SpanInsts: span}
	r, err := snap.NewReader(ckpt)
	if err != nil {
		return reg, nil, err
	}
	wk.m.Restore(r)
	err = r.Close()
	// The restored machine holds no reference into ckpt, so the forward
	// pass may encode into it now. When free is full, or nil, the buffer
	// is left to the garbage collector instead.
	select {
	case wk.free <- ckpt:
	default:
	}
	if err != nil {
		return reg, nil, err
	}
	budget := detail
	if budget > span {
		budget = span
	}
	if warm >= budget {
		warm = budget / 2
	}
	// The pipeline reads the emulator directly and stops it at the budget.
	cfg.MaxInsts = budget
	p := wk.p
	p.Reset(wk.m, cfg)
	if warm > 0 {
		p.RunTo(warm)
		reg.WarmCycles = p.CurrentCycle()
		reg.WarmInsts = p.Retired()
	}
	p.RunTo(0)
	s = p.Finish()
	reg.Insts = s.Retired - reg.WarmInsts
	reg.Cycles = s.Cycles - reg.WarmCycles
	if reg.Insts > 0 {
		// Scale the measured window's rate over the instructions the region
		// stands for.
		reg.EstCycles = float64(reg.Cycles) * float64(span) / float64(reg.Insts)
	}
	return reg, s, nil
}
