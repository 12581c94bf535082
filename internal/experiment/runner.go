// Package experiment regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §2 for the index). Each experiment function
// returns a typed result with the measured values plus the paper's reported
// numbers for side-by-side comparison, and renders to a plain-text table.
package experiment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/sample"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// DefaultBudget is the committed-instruction budget per simulation. The
// paper runs 100M instructions per benchmark; these kernels reach steady
// state within a few hundred thousand (DESIGN.md substitution #4).
const DefaultBudget = 200_000

// ProgressKind classifies a Runner progress event.
type ProgressKind int

const (
	// RunStarted: a new (benchmark, config) key began simulating.
	RunStarted ProgressKind = iota
	// RunCompleted: the simulation finished successfully.
	RunCompleted
	// RunFailed: the simulation aborted with a pipeline.SimError.
	RunFailed
	// RunSegment: a checkpointed run finished one segment and persisted its
	// checkpoint; Done/Total carry committed instructions out of the budget.
	RunSegment
	// RunRegion: a sampled run completed one detailed region window;
	// Done/Total count regions, Total being the planned schedule length
	// (sample.Options.OnRegion).
	RunRegion
)

// String returns the event name used in -v logs.
func (k ProgressKind) String() string {
	switch k {
	case RunStarted:
		return "start"
	case RunCompleted:
		return "done"
	case RunFailed:
		return "fail"
	case RunSegment:
		return "segment"
	case RunRegion:
		return "region"
	}
	return "unknown"
}

// ProgressEvent is one observable runner action, delivered to
// Options.Progress.
type ProgressEvent struct {
	Kind ProgressKind
	Key  string        // "benchmark/config"
	Wall time.Duration // simulation wall time (RunCompleted, RunFailed)
	Err  error         // the failure (RunFailed)
	// Done/Total report intra-run progress: instructions out of the budget
	// (RunSegment) or completed regions out of the planned schedule
	// (RunRegion).
	Done, Total uint64
}

// Options configures a Runner.
type Options struct {
	// Budget is the committed-instruction count per run (0 = DefaultBudget).
	Budget uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Progress, if non-nil, receives one event per runner action. It is
	// called from simulation goroutines and must be safe for concurrent use.
	Progress func(ProgressEvent)

	// SampleInterval, when non-zero, switches every run to region-parallel
	// sampled simulation (internal/sample) with checkpoints every this many
	// instructions. SampleDetail, SampleWarmup and SampleWorkers pass
	// through to sample.Options. Mutually exclusive with CheckpointDir.
	SampleInterval uint64
	SampleDetail   uint64
	SampleWarmup   uint64
	SampleWorkers  int

	// CheckpointDir, when non-empty, makes every run segmented and
	// resumable: the runner writes an on-disk checkpoint of the full
	// simulator state every CheckpointEvery instructions (default
	// Budget/4), and the final stats as a Store record when a run
	// completes. A rerun over the same directory resumes each run from its
	// newest checkpoint — or returns instantly from the store — so a killed
	// sweep loses at most one segment per key. Resumed runs are bit-exact:
	// the segment schedule is derived from the checkpoint spacing, so a
	// resumed run retires the same instructions in the same cycles as an
	// uninterrupted segmented run.
	CheckpointDir   string
	CheckpointEvery uint64

	// RunFn executes full-detail (monolithic) runs (nil =
	// pipeline.RunProgramErr). Replacing it exists for tests and
	// fault-injection drills — a service can stand in a failing or blocking
	// simulation without touching the model — and is excluded from
	// RunFingerprint, so production servers must leave it nil.
	RunFn func(prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error)

	// Interrupt, when non-nil, requests cooperative cancellation: a run that
	// has not started yet, or a checkpointed run between two segments,
	// observes the closed channel and returns ErrInterrupted instead of
	// simulating on. A checkpointed run's newest segment checkpoint is
	// already on disk at every observation point, so an interrupted sweep
	// loses at most one segment per key and a rerun resumes bit-exactly.
	// Long-lived services use this to drain in-flight work on shutdown.
	Interrupt <-chan struct{}
}

// ErrInterrupted is returned by Run/RunErr for runs cut short by
// Options.Interrupt. It is an operational signal (shutdown), not a
// simulation failure: the run can be retried — and, in checkpointed mode,
// resumed — by a fresh runner.
var ErrInterrupted = errors.New("experiment: run interrupted by shutdown")

// RunnerStats is a point-in-time snapshot of a Runner's execution counters.
type RunnerStats struct {
	Started   uint64 // simulations begun
	Completed uint64 // ...that finished successfully
	Failed    uint64 // ...that aborted with a SimError
	Deduped   uint64 // callers who joined an in-flight simulation
	CacheHits uint64 // callers satisfied from the completed-run cache
}

// String renders the counters on one line.
func (s RunnerStats) String() string {
	return fmt.Sprintf("%d simulated (%d failed), %d cache hits, %d deduped",
		s.Started, s.Failed, s.CacheHits, s.Deduped)
}

// runEntry is the singleflight cell for one (benchmark, config) key: the
// first caller becomes the leader and simulates; everyone else blocks on
// done and shares the result. Exactly one simulation runs per key.
type runEntry struct {
	done  chan struct{} // closed when stats/err/wall are final
	stats *pipeline.Stats
	err   error
	wall  time.Duration
}

// Runner executes and memoizes benchmark/configuration simulations. All
// experiments share one Runner so configurations reused across tables (the
// base, Friendly and FDRT runs appear in many) are simulated once — even
// when requested concurrently. A failed simulation is recorded per key
// (see Errors, FailureSummary) and does not poison other keys.
type Runner struct {
	opts Options

	mu    sync.Mutex
	cache map[string]*runEntry

	started, completed, failed, deduped, cacheHits uint64

	sem chan struct{}
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.RunFn == nil {
		opts.RunFn = pipeline.RunProgramErr
	}
	return &Runner{
		opts:  opts,
		cache: make(map[string]*runEntry),
		sem:   make(chan struct{}, opts.Parallelism),
	}
}

// Budget returns the per-run instruction budget.
func (r *Runner) Budget() uint64 { return r.opts.Budget }

// Fingerprint returns the canonical identity of the result Run(bm, _, cfg)
// would produce under this runner's options. See RunFingerprint.
func (r *Runner) Fingerprint(bm workload.Benchmark, cfg pipeline.Config) uint64 {
	return RunFingerprint(bm.Name, cfg, r.opts)
}

// RunFingerprint hashes everything that determines a run's stats — the
// benchmark name, the full serialized configuration (pipeline.Config's
// canonical fingerprint), the instruction budget, and the result-affecting
// mode options — into one FNV-64a value. Results persisted under this
// fingerprint (Store records, checkpoint headers) can never be served back
// for a run that would compute something else: changing the budget, any
// config field, or the segmentation/sampling schedule changes the
// fingerprint. Concurrency knobs (Parallelism, SampleWorkers) are excluded
// because the runner and sampler are deterministic under them; so is the
// CheckpointDir path, which relocates files without affecting the simulated
// schedule.
func RunFingerprint(bmName string, cfg pipeline.Config, opts Options) uint64 {
	budget := opts.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	// The budget is hashed explicitly below; the config's MaxInsts field is
	// zeroed so callers that pre-set it agree with the runner, which owns
	// the budget in every mode.
	cfg.MaxInsts = 0
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	io.WriteString(h, bmName)
	h.Write([]byte{0})
	put(cfg.Fingerprint())
	put(budget)
	switch {
	case opts.SampleInterval != 0:
		put(2) // mode: sampled
		put(opts.SampleInterval)
		put(opts.SampleDetail)
		put(opts.SampleWarmup)
	case opts.CheckpointDir != "":
		put(1) // mode: checkpoint-segmented (RunTo drain points shift cycles)
		put(effectiveEvery(budget, opts.CheckpointEvery))
	default:
		put(0) // mode: monolithic
	}
	return h.Sum64()
}

// effectiveEvery resolves the checkpoint spacing actually used for a budget:
// it determines the segment schedule, so it is part of the run fingerprint.
func effectiveEvery(budget, every uint64) uint64 {
	if every == 0 {
		every = budget / 4
	}
	if every == 0 {
		every = 1
	}
	return every
}

// interrupted reports whether Options.Interrupt has fired (nil = never).
func (r *Runner) interrupted() bool {
	select {
	case <-r.opts.Interrupt:
		return true
	default:
		return false
	}
}

func (r *Runner) emit(ev ProgressEvent) {
	if r.opts.Progress != nil {
		r.opts.Progress(ev)
	}
}

// Run simulates bm under cfg (cached by benchmark name + cfgKey). It
// returns nil when the simulation failed; the error stays recorded in the
// Runner (Errors, FailureSummary) so artifact builders can skip the row and
// keep going. Use RunErr to observe the error directly.
func (r *Runner) Run(bm workload.Benchmark, cfgKey string, cfg pipeline.Config) *pipeline.Stats {
	s, _ := r.RunErr(bm, cfgKey, cfg)
	return s
}

// RunErr simulates bm under cfg and returns the stats or the recorded
// per-key error. Concurrent callers with the same key share one underlying
// simulation (singleflight); later callers get cache hits.
func (r *Runner) RunErr(bm workload.Benchmark, cfgKey string, cfg pipeline.Config) (*pipeline.Stats, error) {
	key := bm.Name + "/" + cfgKey
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		// Someone already owns this key: either the run is finished (cache
		// hit) or in flight (join it instead of simulating a duplicate).
		select {
		case <-e.done:
			r.cacheHits++
		default:
			r.deduped++
		}
		r.mu.Unlock()
		<-e.done
		return e.stats, e.err
	}
	e := &runEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.started++
	r.mu.Unlock()
	r.emit(ProgressEvent{Kind: RunStarted, Key: key})

	func() {
		// The leader must always publish, or waiters deadlock; simulate
		// recovers panics (including from hooked run functions) into errors.
		defer close(e.done)
		start := time.Now()
		e.stats, e.err = r.simulate(key, bm, cfgKey, cfg)
		e.wall = time.Since(start)
	}()

	r.mu.Lock()
	if e.err != nil {
		r.failed++
	} else {
		r.completed++
	}
	r.mu.Unlock()
	if e.err != nil {
		r.emit(ProgressEvent{Kind: RunFailed, Key: key, Wall: e.wall, Err: e.err})
	} else {
		r.emit(ProgressEvent{Kind: RunCompleted, Key: key, Wall: e.wall})
	}
	return e.stats, e.err
}

// simulate executes one run, holding a semaphore slot only around the
// cycle-level model: program generation is memoized and cheap, so it must
// not occupy a simulation slot.
func (r *Runner) simulate(key string, bm workload.Benchmark, cfgKey string, cfg pipeline.Config) (s *pipeline.Stats, err error) {
	defer func() {
		// Safety net for panics escaping RunFn itself (RunProgramErr already
		// recovers model panics; this catches hooked or future run paths).
		if rec := recover(); rec != nil {
			s, err = nil, &pipeline.SimError{Reason: fmt.Sprint(rec)}
		}
	}()
	if r.opts.CheckpointDir != "" && r.opts.SampleInterval != 0 {
		return nil, fmt.Errorf("experiment: sampled and checkpointed modes are mutually exclusive")
	}
	prog := bm.ProgramFor(r.opts.Budget)
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	if r.interrupted() {
		// Shutdown arrived while this run waited for a simulation slot;
		// returning before any model work lets a drain finish promptly.
		return nil, ErrInterrupted
	}
	switch {
	case r.opts.CheckpointDir != "":
		return r.runCheckpointed(key, bm, cfgKey, prog, cfg)
	case r.opts.SampleInterval != 0:
		return r.runSampled(key, prog, cfg)
	default:
		cfg.MaxInsts = r.opts.Budget
		return r.opts.RunFn(prog, cfg)
	}
}

// runSampled estimates the run with region-parallel sampled simulation.
// The returned Stats carries the whole-run estimate in Cycles/Retired
// (so IPC and speedup math work unchanged); the remaining counters sum
// over the instructions simulated in detail only.
func (r *Runner) runSampled(key string, prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error) {
	res, err := sample.Run(prog, cfg, sample.Options{
		Interval: r.opts.SampleInterval,
		Detail:   r.opts.SampleDetail,
		Warmup:   r.opts.SampleWarmup,
		Workers:  r.opts.SampleWorkers,
		MaxInsts: r.opts.Budget,
		OnRegion: func(done, total int) {
			r.emit(ProgressEvent{Kind: RunRegion, Key: key,
				Done: uint64(done), Total: uint64(total)})
		},
	})
	if err != nil {
		return nil, err
	}
	s := res.Stats
	s.Cycles = int64(res.EstimatedCycles + 0.5)
	s.Retired = res.TotalInsts
	return &s, nil
}

// runCheckpointed executes one run as a sequence of RunTo segments,
// persisting the full simulator state after each one as <fp>.ckpt in
// CheckpointDir. A completed run puts its stats into the directory's Store
// as <fp>.json and removes its checkpoint; a rerun finds the record and
// returns instantly. A killed run leaves its newest checkpoint behind, and
// the rerun resumes from it bit-exactly. Both files are named by the run
// fingerprint (budget + config + schedule), so a rerun under different
// options — the classic stale case is a changed -insts budget over the same
// directory — looks up different files. The checkpoint also carries the
// fingerprint inside, so one renamed or copied onto another run's name is
// discarded on load and the run restarts from scratch, exactly as a
// checkpoint that fails to decode (truncated write, version skew) is.
func (r *Runner) runCheckpointed(key string, bm workload.Benchmark, cfgKey string, prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error) {
	st, err := OpenStore(r.opts.CheckpointDir)
	if err != nil {
		return nil, err
	}
	fp := r.Fingerprint(bm, cfg)
	if rec, ok := st.Get(fp); ok {
		return rec.Stats, nil
	}
	ckptPath := st.ckptPath(fp)

	budget := r.opts.Budget
	every := effectiveEvery(budget, r.opts.CheckpointEvery)
	cfg.MaxInsts = 0 // the budget lives in the (snapshotable) LimitStream
	newPipe := func() *pipeline.Pipeline {
		return pipeline.New(&emu.LimitStream{S: emu.New(prog), Budget: budget}, cfg)
	}
	p := newPipe()
	if rd, err := snap.ReadFile(ckptPath); err == nil {
		rd.Begin("run")
		rd.Expect("run fingerprint", fp)
		rd.End()
		if rd.Err() == nil {
			p.Restore(rd)
		}
		if rd.Err() != nil || rd.Close() != nil {
			// Renamed or copied from another run, or unusable: restart clean.
			p = newPipe()
		}
	}
	for {
		if r.interrupted() {
			// The newest segment checkpoint is already on disk; a rerun
			// resumes from it bit-exactly.
			return nil, ErrInterrupted
		}
		next := (p.Consumed()/every + 1) * every
		if next > budget {
			next = budget
		}
		if p.RunTo(next) || p.Consumed() >= budget {
			break
		}
		w := snap.NewWriter()
		w.Begin("run")
		w.U64(fp)
		w.End()
		p.Snapshot(w)
		if err := snap.WriteFile(ckptPath, w); err != nil {
			return nil, fmt.Errorf("writing checkpoint %s: %w", ckptPath, err)
		}
		// The segment's checkpoint is durable: announce the boundary so
		// services can stream intra-run progress to their clients.
		r.emit(ProgressEvent{Kind: RunSegment, Key: key, Done: p.Consumed(), Total: budget})
	}
	s := p.Finish()
	if err := st.Put(&Record{Fingerprint: FormatFP(fp), Benchmark: bm.Name, Config: cfgKey,
		Budget: budget, Mode: "checkpointed", Stats: s}); err != nil {
		return nil, fmt.Errorf("writing result record: %w", err)
	}
	os.Remove(ckptPath) // superseded by the record
	return s, nil
}

// Prefetch runs the given benchmark/config pairs concurrently so later
// cache hits are instant. Experiments call it with their full matrix. The
// fan-out is a fixed worker pool (Options.Parallelism workers over a job
// channel), not one goroutine per pair, so arbitrarily large matrices run
// with bounded concurrency.
func (r *Runner) Prefetch(bms []workload.Benchmark, cfgs map[string]pipeline.Config) {
	type job struct {
		bm  workload.Benchmark
		key string
		cfg pipeline.Config
	}
	n := len(bms) * len(cfgs)
	if n == 0 {
		return
	}
	workers := r.opts.Parallelism
	if workers > n {
		workers = n
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r.RunErr(j.bm, j.key, j.cfg)
			}
		}()
	}
	// Submit in sorted key order: results are cached by key either way, but
	// a deterministic submission order keeps run scheduling (and therefore
	// any timing-derived diagnostics) reproducible across processes.
	keys := make([]string, 0, len(cfgs))
	for key := range cfgs { //ctcp:lint-ok maporder -- keys are collected and sorted before use
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, bm := range bms {
		for _, key := range keys {
			jobs <- job{bm, key, cfgs[key]}
		}
	}
	close(jobs)
	wg.Wait()
}

// Stats returns a snapshot of the runner's execution counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{
		Started:   r.started,
		Completed: r.completed,
		Failed:    r.failed,
		Deduped:   r.deduped,
		CacheHits: r.cacheHits,
	}
}

// Errors returns the recorded failures, keyed by "benchmark/config".
// In-flight runs are not included.
func (r *Runner) Errors() map[string]error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]error)
	for k, e := range r.cache { //ctcp:lint-ok maporder -- map-to-map copy; result is order-insensitive
		select {
		case <-e.done:
			if e.err != nil {
				out[k] = e.err
			}
		default:
		}
	}
	return out
}

// FailureSummary renders the recorded failures one per line, sorted by key;
// it returns "" when every run succeeded.
func (r *Runner) FailureSummary() string {
	errs := r.Errors()
	if len(errs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(errs))
	for k := range errs { //ctcp:lint-ok maporder -- keys are collected and sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%d simulation(s) failed:\n", len(keys))
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-28s %v\n", k, errs[k])
	}
	return b.String()
}

// statsOK reports whether every run in ss succeeded. Artifact builders use
// it to drop a benchmark's row instead of rendering garbage when one of its
// runs failed (the failure itself stays recorded in the Runner).
func statsOK(ss ...*pipeline.Stats) bool {
	for _, s := range ss {
		if s == nil {
			return false
		}
	}
	return true
}

// --- shared configurations ---

// BaseConfig returns the Table 7 baseline.
func BaseConfig() pipeline.Config { return pipeline.DefaultConfig() }

// StrategyConfigs returns the named strategy configurations used across the
// performance figures.
func StrategyConfigs() map[string]pipeline.Config {
	base := BaseConfig()
	return map[string]pipeline.Config{
		"base":         base,
		"friendly":     base.WithStrategy(core.Friendly, false),
		"friendly-mid": base.WithStrategy(core.FriendlyMiddle, false),
		"fdrt":         base.WithStrategy(core.FDRT, false),
		"fdrt-nopin":   base.WithStrategy(core.FDRTNoPin, false),
		"issue0":       base.WithStrategy(core.IssueTime, true),
		"issue4":       base.WithStrategy(core.IssueTime, false),
	}
}

// speedup returns baseCycles/cycles; it reports 0 (which HarmonicMean
// rejects visibly) when either run is missing or degenerate, so a failed
// base run cannot divide garbage once errors are non-fatal.
func speedup(base, s *pipeline.Stats) float64 {
	if base == nil || s == nil || base.Cycles == 0 || s.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(s.Cycles)
}

func fmtBench(name string) string { return fmt.Sprintf("%-9s", name) }
