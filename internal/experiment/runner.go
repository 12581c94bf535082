// Package experiment regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §2 for the index). Each one is an entry of the
// Artifacts registry whose Build returns Sections: the measured values, the
// paper's reported numbers for side-by-side comparison where the table
// prints them, and one plain-text rendering shared by every table.
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
	// RunStarted: a new run fingerprint began simulating.
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
	Key  string        // "benchmark/label" of the request that started the run
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

	// RunFn executes full-detail (monolithic) runs. Nil, the production
	// setting, resets the simulation slot's reused pipeline for each run
	// (runOn). Replacing it exists for tests and fault-injection drills — a
	// service can stand in a failing or blocking simulation without touching
	// the model — and is excluded from RunFingerprint, so production servers
	// must leave it nil.
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

// runEntry is the singleflight cell for one run fingerprint: the first
// caller becomes the leader and simulates; everyone else blocks on done and
// shares the result. Exactly one simulation runs per fingerprint.
type runEntry struct {
	key   string        // "benchmark/label" of the leader's request
	read  bool          // requested through Run/RunErr, not only Prefetch
	done  chan struct{} // closed when stats/err/wall are final
	stats *pipeline.Stats
	err   error
	wall  time.Duration
}

// Runner executes and memoizes benchmark/configuration simulations, keyed
// by run fingerprint (RunFingerprint), the identity the result store,
// ctcpd and named saves use. All experiments share one Runner, so each
// distinct configuration simulates once, whatever label requests it and
// even when requested concurrently: the base, Friendly and FDRT runs appear
// in many tables, and a sweep point equal to the base configuration is the
// base run. A label only names a run; the first label to start a run names
// it in progress events, Errors, FailureSummary and checkpointed records.
// The fingerprint excludes hooks, so a Config.RetireHook would fire only for
// the first request of a configuration. A failed simulation is recorded
// under its fingerprint and does not poison other runs.
type Runner struct {
	opts Options

	mu    sync.Mutex
	cache map[uint64]*runEntry

	started, completed, failed, deduped, cacheHits uint64

	// sem holds one pipeline per simulation slot: a run takes a pipeline
	// to simulate and gives it back, so Parallelism pipelines serve every
	// run, each Reset for its next configuration.
	sem chan *pipeline.Pipeline
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		opts:  opts,
		cache: make(map[uint64]*runEntry),
		sem:   make(chan *pipeline.Pipeline, opts.Parallelism),
	}
	for i := 0; i < opts.Parallelism; i++ {
		r.sem <- new(pipeline.Pipeline)
	}
	return r
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

// Run simulates bm under cfg (cached by run fingerprint; label names the
// run). It returns nil when the simulation failed; the error stays recorded
// in the Runner (Errors, FailureSummary) so artifact builders can skip the
// row and keep going. Use RunErr to observe the error directly.
func (r *Runner) Run(bm workload.Benchmark, label string, cfg pipeline.Config) *pipeline.Stats {
	s, _ := r.RunErr(bm, label, cfg)
	return s
}

// RunErr simulates bm under cfg and returns the stats or the recorded
// error. Concurrent callers with the same run fingerprint share one
// underlying simulation (singleflight), whatever their labels; later
// callers get cache hits.
func (r *Runner) RunErr(bm workload.Benchmark, label string, cfg pipeline.Config) (*pipeline.Stats, error) {
	return r.request(bm, label, cfg, true)
}

// request is RunErr for both kinds of caller: read is false for Prefetch,
// whose runs an artifact must still read back (Unread).
func (r *Runner) request(bm workload.Benchmark, label string, cfg pipeline.Config, read bool) (*pipeline.Stats, error) {
	fp := r.Fingerprint(bm, cfg)
	r.mu.Lock()
	if e, ok := r.cache[fp]; ok {
		if read {
			e.read = true
		}
		// Someone already owns this run: either it is finished (cache hit)
		// or in flight (join it instead of simulating a duplicate).
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
	key := bm.Name + "/" + label
	e := &runEntry{key: key, read: read, done: make(chan struct{})}
	r.cache[fp] = e
	r.started++
	r.mu.Unlock()
	r.emit(ProgressEvent{Kind: RunStarted, Key: key})

	func() {
		// The leader must always publish, or waiters deadlock; simulate
		// recovers panics (including from hooked run functions) into errors.
		defer close(e.done)
		start := time.Now()
		e.stats, e.err = r.simulate(key, fp, bm, label, cfg)
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
// not occupy a simulation slot. A panic anywhere in the run, in the model
// or in a RunFn hook, comes back as a *pipeline.SimError; the slot's next
// Reset recovers its pipeline from the abandoned run.
func (r *Runner) simulate(key string, fp uint64, bm workload.Benchmark, label string, cfg pipeline.Config) (s *pipeline.Stats, err error) {
	defer pipeline.Recover(&err)
	if r.opts.CheckpointDir != "" && r.opts.SampleInterval != 0 {
		return nil, fmt.Errorf("experiment: sampled and checkpointed modes are mutually exclusive")
	}
	prog := bm.ProgramFor(r.opts.Budget)
	p := <-r.sem
	defer func() { r.sem <- p }()
	if r.interrupted() {
		// Shutdown arrived while this run waited for a simulation slot;
		// returning before any model work lets a drain finish promptly.
		return nil, ErrInterrupted
	}
	switch {
	case r.opts.CheckpointDir != "":
		return r.runCheckpointed(key, fp, bm, label, p, prog, cfg)
	case r.opts.SampleInterval != 0:
		return r.runSampled(key, prog, cfg)
	}
	cfg.MaxInsts = r.opts.Budget
	if r.opts.RunFn != nil {
		return r.opts.RunFn(prog, cfg)
	}
	// Reset leaves p as New builds it, so the stats equal RunProgramErr's.
	p.Reset(emu.New(prog), cfg)
	return p.Run(), nil
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

// checkpointRun codes the "run" section that opens every checkpoint the
// runner writes: the run fingerprint, which decoding refuses unless it is
// fp.
func checkpointRun(c *snap.Codec, fp uint64) {
	c.Begin("run")
	c.Check("run fingerprint", fp)
	c.End()
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
func (r *Runner) runCheckpointed(key string, fp uint64, bm workload.Benchmark, label string, p *pipeline.Pipeline, prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error) {
	st, err := OpenStore(r.opts.CheckpointDir)
	if err != nil {
		return nil, err
	}
	if rec, ok := st.Get(fp); ok {
		return rec.Stats, nil
	}
	ckptPath := st.ckptPath(fp)

	budget := r.opts.Budget
	every := effectiveEvery(budget, r.opts.CheckpointEvery)
	cfg.MaxInsts = 0 // the budget lives in the (snapshotable) LimitStream
	reset := func() {
		p.Reset(&emu.LimitStream{S: emu.New(prog), Budget: budget}, cfg)
	}
	reset()
	if rd, err := snap.ReadFile(ckptPath); err == nil {
		if checkpointRun(&rd.Codec, fp); rd.Err() == nil {
			p.Restore(rd)
		}
		if rd.Err() != nil || rd.Close() != nil {
			// Renamed or copied from another run, or unusable: restart clean.
			reset()
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
		checkpointRun(&w.Codec, fp)
		p.Snapshot(w)
		if err := snap.WriteFile(ckptPath, w); err != nil {
			return nil, fmt.Errorf("writing checkpoint %s: %w", ckptPath, err)
		}
		// The segment's checkpoint is durable: announce the boundary so
		// services can stream intra-run progress to their clients.
		r.emit(ProgressEvent{Kind: RunSegment, Key: key, Done: p.Consumed(), Total: budget})
	}
	s := p.Finish()
	if err := st.Put(&Record{Fingerprint: FormatFP(fp), Benchmark: bm.Name, Config: label,
		Budget: budget, Mode: "checkpointed", Stats: s}); err != nil {
		return nil, fmt.Errorf("writing result record: %w", err)
	}
	os.Remove(ckptPath) // superseded by the record
	return s, nil
}

// Prefetch runs the given benchmark/config pairs concurrently so later
// cache hits are instant. An artifact prefetches exactly the pairs it then
// reads with Run (runRows); a prefetched run nobody reads shows in Unread.
// The fan-out is a fixed worker pool (Options.Parallelism workers over a job
// channel), not one goroutine per pair, so arbitrarily large matrices run
// with bounded concurrency.
func (r *Runner) Prefetch(bms []workload.Benchmark, cfgs map[string]pipeline.Config) {
	type job struct {
		bm    workload.Benchmark
		label string
		cfg   pipeline.Config
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
				r.request(j.bm, j.label, j.cfg, false)
			}
		}()
	}
	// Submit in sorted label order: results are cached by fingerprint
	// either way, but a deterministic submission order keeps run scheduling
	// (and therefore any timing-derived diagnostics) reproducible across
	// processes.
	labels := make([]string, 0, len(cfgs))
	for label := range cfgs { //ctcp:lint-ok maporder -- labels are collected and sorted before use
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, bm := range bms {
		for _, label := range labels {
			jobs <- job{bm, label, cfgs[label]}
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

// Unread returns, sorted, the "benchmark/label" keys of the finished runs
// that only Prefetch requested: simulations whose results no caller of Run
// or RunErr ever read.
func (r *Runner) Unread() []string {
	var keys []string
	for _, e := range r.finished() {
		if !e.read {
			keys = append(keys, e.key)
		}
	}
	return keys
}

// Errors returns the recorded failures, keyed by the "benchmark/label" that
// started each failed run. In-flight runs are not included.
func (r *Runner) Errors() map[string]error {
	out := make(map[string]error)
	for _, e := range r.finished() {
		if e.err != nil {
			out[e.key] = e.err
		}
	}
	return out
}

// finished returns a copy of every settled run's entry, sorted by key.
func (r *Runner) finished() []runEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []runEntry
	for _, e := range r.cache { //ctcp:lint-ok maporder -- entries are collected and sorted before use
		select {
		case <-e.done:
			out = append(out, *e)
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
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

// column is one configuration an artifact reads, under its run label.
type column struct {
	label string
	cfg   pipeline.Config
}

// runRows is how an artifact simulates: one list of columns decides both
// what it prefetches and what it reads, so it simulates exactly the runs it
// prints. It prefetches every benchmark × column pair, then calls row with
// each benchmark's stats in column order. A benchmark with a failed run has
// no row; the failure stays recorded in the Runner.
func runRows(r *Runner, bms []workload.Benchmark, cols []column, row func(bm workload.Benchmark, ss []*pipeline.Stats)) {
	cfgs := make(map[string]pipeline.Config, len(cols))
	for _, c := range cols {
		cfgs[c.label] = c.cfg
	}
	r.Prefetch(bms, cfgs)
	for _, bm := range bms {
		ss := make([]*pipeline.Stats, len(cols))
		ok := true
		for i, c := range cols {
			ss[i] = r.Run(bm, c.label, c.cfg)
			ok = ok && ss[i] != nil
		}
		if ok {
			row(bm, ss)
		}
	}
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

// strategies returns the named StrategyConfigs entries as columns, in order.
func strategies(labels ...string) []column {
	cfgs := StrategyConfigs()
	cols := make([]column, len(labels))
	for i, label := range labels {
		cols[i] = column{label, cfgs[label]}
	}
	return cols
}

// speedups returns each run's speedup over the row's first run, its base.
func speedups(ss []*pipeline.Stats) []float64 {
	out := make([]float64, len(ss)-1)
	for i, s := range ss[1:] {
		out[i] = speedup(ss[0], s)
	}
	return out
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
