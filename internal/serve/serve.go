// Package serve implements ctcpd, a stdlib-only HTTP/JSON simulation
// service over the experiment runner. Clients submit (benchmark, strategy,
// budget, mode) jobs; the service simulates each distinct job exactly once —
// concurrent duplicates join the in-flight job, repeats are answered from a
// content-addressed result store keyed by the canonical run fingerprint
// (experiment.RunFingerprint) — and exposes its counters in Prometheus text
// form on /metrics. That fingerprint index is the only dedup layer: each
// dispatched job simulates on an experiment.Runner of its own.
//
// The job lifecycle is crash-durable: every acceptance is a <fp>.req entry
// in the store directory, written atomically before the client hears 202
// and removed once the job settles, so a restarted server replays queued
// and interrupted jobs instead of losing them, while completed
// fingerprints answer from the store with zero resimulation.
// Accepted jobs wait in one bounded FIFO queue and are dispatched in
// submission order. Progress streams: every job exposes an event feed
// (queued/running, per-segment and per-region ticks, terminal) over a
// server-sent-events endpoint.
//
// Shutdown drains in-flight simulations cooperatively: checkpoint-mode runs
// stop at the next segment boundary with their newest checkpoint already on
// disk, so a restarted server resumes them bit-exactly.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ctcp/internal/experiment"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// Config configures a Server.
type Config struct {
	// Store is the result-store directory (required). Checkpointed jobs
	// keep their segment checkpoints here too, beside the records they
	// complete into, which is what makes shutdown lossless for long
	// simulations. Every accepted job is a <fp>.req file here until it
	// settles; a restart over the same directory replays them.
	Store string
	// QueueDepth bounds the number of accepted-but-not-running jobs
	// (0 = 64). A full queue rejects submissions with 429 rather than
	// accepting unbounded work.
	QueueDepth int
	// Workers is the number of concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// DefaultBudget is applied to requests that omit a budget
	// (0 = experiment.DefaultBudget).
	DefaultBudget uint64
	// RetainJobs bounds the terminal jobs kept in memory (0 = 512). Evicted
	// jobs disappear from /api/v1/jobs, but their results stay addressable
	// forever via /api/v1/results/{fp} — the store is the system of record.
	RetainJobs int
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
}

// Request is the submission payload of POST /api/v1/jobs.
type Request struct {
	// Benchmark is a workload name (see workload.All).
	Benchmark string `json:"benchmark"`
	// Config is a strategy-configuration name (see experiment.StrategyConfigs).
	Config string `json:"config"`
	// Budget is the committed-instruction budget (0 = server default).
	Budget uint64 `json:"budget,omitempty"`

	// SampleInterval switches the run to region-parallel sampled simulation;
	// SampleDetail and SampleWarmup pass through. Mutually exclusive with
	// Checkpoint.
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	SampleDetail   uint64 `json:"sample_detail,omitempty"`
	SampleWarmup   uint64 `json:"sample_warmup,omitempty"`

	// Checkpoint requests a checkpoint-segmented run, resumable across
	// server restarts.
	Checkpoint      bool   `json:"checkpoint,omitempty"`
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

// mode names the request's simulation mode for records and logs.
func (req Request) mode() string {
	switch {
	case req.SampleInterval != 0:
		return "sampled"
	case req.Checkpoint:
		return "checkpointed"
	default:
		return "full"
	}
}

// acceptance is the JSON body of <Store>/<fp>.req: one accepted job the
// store still owes an answer. Seq is the job's acceptance number, which
// keeps replay in acceptance order across any number of restarts.
type acceptance struct {
	Seq     int     `json:"seq"`
	Request Request `json:"req"`
}

// Job statuses, in lifecycle order.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusFailed      = "failed"
	StatusInterrupted = "interrupted"
)

// Job tracks one submitted simulation from acceptance to result. All mutable
// fields are guarded by the owning Server's mutex; done is closed exactly
// once, when the job reaches a terminal status.
type Job struct {
	ID          string
	Fingerprint string
	Request     Request

	seq    int
	bm     workload.Benchmark
	cfg    pipeline.Config
	opts   experiment.Options
	status string
	errMsg string
	stats  *pipeline.Stats
	cached bool // satisfied from the result store, no simulation
	queued time.Time
	begun  time.Time
	done   chan struct{}

	events []Event
	subs   map[chan Event]struct{}
}

// jobView is the JSON shape of a job in every API response.
type jobView struct {
	ID          string          `json:"id"`
	Fingerprint string          `json:"fingerprint"`
	Benchmark   string          `json:"benchmark"`
	Config      string          `json:"config"`
	Budget      uint64          `json:"budget"`
	Mode        string          `json:"mode"`
	Status      string          `json:"status"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error,omitempty"`
	Stats       *pipeline.Stats `json:"stats,omitempty"`
}

// Server is the ctcpd HTTP handler plus its worker pool. Create with New,
// serve with net/http, stop with Shutdown.
type Server struct {
	cfg   Config
	store *experiment.Store
	mux   *http.ServeMux

	interrupt chan struct{}
	wg        sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // pending work / shutdown, guarded by mu
	closed   bool
	seq      int
	jobs     map[string]*Job // by ID
	byFP     map[string]*Job // by fingerprint: the service's one dedup index
	queue    []*Job          // accepted-but-not-running jobs, in submission order
	pending  int             // reserved or queued, not yet running (the 429 bound)
	terminal []*Job          // terminal jobs in completion order (retention ring)

	// testRunFn, when set, replaces the simulation call of every job
	// dispatched afterwards (fault injection in tests).
	testRunFn func(prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error)

	submitted, completed, failed, interrupted, rejected, storeHits uint64
	runStarted, runCompleted, runFailed                            uint64 // simulations, counted by runJob
	queueHist, simHist                                             histogram
	simTotal                                                       pipeline.Stats // summed over the runCompleted simulations
}

// New builds a Server, opens (or creates) its result store, replays the
// acceptances it holds, and starts its worker pool.
func New(cfg Config) (*Server, error) {
	store, err := experiment.OpenStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	legacy := filepath.Join(cfg.Store, "queue.journal")
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("serve: %s is a queue journal from an older ctcpd: drain it with the previous binary or delete it", legacy)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultBudget == 0 {
		cfg.DefaultBudget = experiment.DefaultBudget
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 512
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		interrupt: make(chan struct{}),
		jobs:      make(map[string]*Job),
		byFP:      make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/batch", s.handleBatch)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/results/{fp}", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	if err := s.replayRequests(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// options translates a validated request into the runner options that
// simulate it. Everything here that affects results is covered by
// experiment.RunFingerprint.
func (s *Server) options(req Request) experiment.Options {
	opts := experiment.Options{
		Budget:         req.Budget,
		SampleInterval: req.SampleInterval,
		SampleDetail:   req.SampleDetail,
		SampleWarmup:   req.SampleWarmup,
		Interrupt:      s.interrupt,
	}
	if req.Checkpoint {
		opts.CheckpointDir = s.cfg.Store
		opts.CheckpointEvery = req.CheckpointEvery
	}
	return opts
}

// validate resolves a request against the known benchmarks and strategy
// configurations and applies server defaults. It returns the resolved
// benchmark and config alongside the normalized request.
func (s *Server) validate(req Request) (Request, workload.Benchmark, pipeline.Config, error) {
	bm, ok := workload.ByName(req.Benchmark)
	if !ok {
		return req, bm, pipeline.Config{}, fmt.Errorf("unknown benchmark %q", req.Benchmark)
	}
	cfgs := experiment.StrategyConfigs()
	cfg, ok := cfgs[req.Config]
	if !ok {
		names := make([]string, 0, len(cfgs))
		for name := range cfgs { //ctcp:lint-ok maporder -- keys are collected and sorted before use
			names = append(names, name)
		}
		sort.Strings(names)
		return req, bm, cfg, fmt.Errorf("unknown config %q (have %v)", req.Config, names)
	}
	if req.Budget == 0 {
		req.Budget = s.cfg.DefaultBudget
	}
	if req.SampleInterval != 0 && req.Checkpoint {
		return req, bm, cfg, fmt.Errorf("sampled and checkpointed modes are mutually exclusive")
	}
	return req, bm, cfg, nil
}

// Submit accepts a job (or joins/answers an equivalent one). The returned
// HTTP status tells the story: 202 for a newly accepted (and durable)
// simulation, 200 when the request was satisfied by an existing job or the
// result store, 400 for an invalid request, 429 when the queue is full, 503
// when shutting down.
//
// The dedup index is checked-and-reserved under the server mutex, but the
// result-store read — a disk access — happens outside it: the reservation
// keeps concurrent duplicates joined to one job while every other handler
// proceeds unblocked.
func (s *Server) Submit(req Request) (*Job, int, error) {
	req, bm, cfg, err := s.validate(req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	opts := s.options(req)
	fp := experiment.RunFingerprint(bm.Name, cfg, opts)
	hex := experiment.FormatFP(fp)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down")
	}
	// Service-level dedup: an equivalent job (queued, running, or already
	// terminal) absorbs the submission — and is deliberately not charged
	// against the queue depth, since it costs no new work.
	if j, ok := s.byFP[hex]; ok {
		s.mu.Unlock()
		return j, http.StatusOK, nil
	}
	if s.pending >= s.cfg.QueueDepth {
		s.rejected++
		s.mu.Unlock()
		return nil, http.StatusTooManyRequests, fmt.Errorf("job queue is full (depth %d)", s.cfg.QueueDepth)
	}
	j := s.newJobLocked(req, hex, bm, cfg, opts)
	s.mu.Unlock()

	// Durable dedup, off the lock: a previous process may already have
	// simulated this fingerprint.
	if rec, ok := s.store.Get(fp); ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		j.status = StatusDone
		j.stats = rec.Stats
		j.cached = true
		s.pending--
		s.storeHits++
		s.retireLocked(j)
		s.logf("job %s: %s/%s served from store (%s)", j.ID, req.Benchmark, req.Config, hex)
		return j, http.StatusOK, nil
	}

	// Make the acceptance durable before the client hears 202: a crash
	// after this line replays the job instead of losing it.
	if err := s.accept(j); err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		j.status = StatusFailed
		j.errMsg = err.Error()
		s.pending--
		s.failed++
		s.retireLocked(j)
		return nil, http.StatusInternalServerError, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Shutdown won the race. The <fp>.req stays: the restart
		// replays this acceptance, so the work is delayed, not lost.
		j.status = StatusInterrupted
		j.errMsg = experiment.ErrInterrupted.Error()
		s.pending--
		s.interrupted++
		s.retireLocked(j)
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down")
	}
	s.queue = append(s.queue, j)
	s.submitted++
	s.emitEventLocked(j, Event{Type: StatusQueued})
	s.cond.Signal()
	s.logf("job %s: queued %s/%s budget=%d mode=%s fp=%s",
		j.ID, req.Benchmark, req.Config, req.Budget, req.mode(), hex)
	return j, http.StatusAccepted, nil
}

// newJobLocked allocates, indexes, and reserves a job: it occupies a
// pending slot from this moment. Caller holds s.mu.
func (s *Server) newJobLocked(req Request, hex string, bm workload.Benchmark, cfg pipeline.Config, opts experiment.Options) *Job {
	s.seq++
	j := &Job{
		ID:          fmt.Sprintf("job-%d", s.seq),
		Fingerprint: hex,
		Request:     req,
		seq:         s.seq,
		bm:          bm,
		cfg:         cfg,
		opts:        opts,
		status:      StatusQueued,
		queued:      time.Now(),
		done:        make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.byFP[hex] = j
	s.pending++
	return j
}

// reqPath names the <fp>.req file that holds an accepted job until it
// settles.
func (s *Server) reqPath(hex string) string {
	return filepath.Join(s.cfg.Store, hex+".req")
}

// accept makes j's acceptance durable as <fp>.req. Each file has its own
// name and is written by temp+rename, so concurrent acceptances need no
// lock and a crash leaves the whole file or none of it.
func (s *Server) accept(j *Job) error {
	buf, err := json.Marshal(acceptance{Seq: j.seq, Request: j.Request})
	if err != nil {
		return err
	}
	if err := snap.WriteFileBytes(s.reqPath(j.Fingerprint), buf); err != nil {
		return fmt.Errorf("serve: accepting %s: %w", j.Fingerprint, err)
	}
	return nil
}

// replayRequests rebuilds the queue from the store's <fp>.req files at
// startup: acceptances whose fingerprints the store has already answered
// are deleted, the rest re-enter the queue in acceptance order exactly as
// fresh submissions would, and the job sequence resumes above every
// acceptance found.
func (s *Server) replayRequests() error {
	entries, err := os.ReadDir(s.cfg.Store)
	if err != nil {
		return fmt.Errorf("serve: listing accepted jobs: %w", err)
	}
	// Phase 1, off-lock: everything that touches the disk or only reads
	// immutable server config — the reads, the store probe, validation, the
	// fingerprint-drift check and the deletions. Holding s.mu across
	// store.Get is exactly the I/O-under-lock shape lockheld exists to
	// reject.
	type replayCand struct {
		hex  string
		seq  int
		req  Request
		bm   workload.Benchmark
		cfg  pipeline.Config
		opts experiment.Options
	}
	var cands []replayCand
	maxSeq := 0
	for _, e := range entries {
		hex, ok := strings.CutSuffix(e.Name(), ".req")
		if !ok || e.IsDir() {
			continue // torn temp files (<fp>.req.tmp*) never became acceptances
		}
		path := filepath.Join(s.cfg.Store, e.Name())
		buf, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("serve: reading accepted job: %w", err)
		}
		var a acceptance
		if err := json.Unmarshal(buf, &a); err != nil {
			s.logf("requests: dropping %s: %v", hex, err)
			os.Remove(path)
			continue
		}
		maxSeq = max(maxSeq, a.Seq)
		if fp, err := experiment.ParseFP(hex); err == nil {
			if _, ok := s.store.Get(fp); ok {
				os.Remove(path) // completed before the restart: the store answers it
				continue
			}
		}
		req, bm, cfg, err := s.validate(a.Request)
		if err != nil {
			s.logf("requests: dropping %s: %v", hex, err)
			os.Remove(path)
			continue
		}
		opts := s.options(req)
		if now := experiment.FormatFP(experiment.RunFingerprint(bm.Name, cfg, opts)); now != hex {
			s.logf("requests: dropping %s: fingerprint drift (now %s)", hex, now)
			os.Remove(path)
			continue
		}
		cands = append(cands, replayCand{hex: hex, seq: a.Seq, req: req, bm: bm, cfg: cfg, opts: opts})
	}
	sort.SliceStable(cands, func(i, k int) bool { return cands[i].seq < cands[k].seq })
	// Phase 2, one short lock region: index and queue the survivors.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq = maxSeq
	for _, c := range cands {
		j := s.newJobLocked(c.req, c.hex, c.bm, c.cfg, c.opts)
		s.queue = append(s.queue, j)
		s.submitted++
		s.emitEventLocked(j, Event{Type: StatusQueued})
		s.logf("job %s: replayed %s/%s fp=%s", j.ID, c.req.Benchmark, c.req.Config, c.hex)
	}
	return nil
}

// worker consumes the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks until a job is queued or the server closes, then pops the
// oldest queued job: dispatch is FIFO in submission order.
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if len(s.queue) > 0 {
			j := s.queue[0]
			s.queue[0] = nil // don't let the backing array keep retired jobs alive
			s.queue = s.queue[1:]
			s.pending--
			return j
		}
		s.cond.Wait()
	}
}

// runJob executes one dequeued job to a terminal status on a runner of its
// own: byFP and the store already make each fingerprint simulate once, so
// the runner's memo has nothing to add, and a resubmitted failure meets a
// fresh runner rather than its recorded error. The runner's progress ticks
// become the job's events.
func (s *Server) runJob(j *Job) {
	opts := j.opts
	opts.Progress = func(ev experiment.ProgressEvent) {
		switch ev.Kind {
		case experiment.RunSegment, experiment.RunRegion:
			s.emitEvent(j, Event{Type: ev.Kind.String(), Done: ev.Done, Total: ev.Total})
		}
	}
	s.mu.Lock()
	j.status = StatusRunning
	j.begun = time.Now()
	s.queueHist.observe(j.begun.Sub(j.queued).Seconds())
	s.runStarted++
	opts.RunFn = s.testRunFn
	s.emitEventLocked(j, Event{Type: StatusRunning})
	s.mu.Unlock()

	stats, err := experiment.NewRunner(opts).RunErr(j.bm, j.Request.Config, j.cfg)
	wall := time.Since(j.begun)

	// Done and failed both settle the acceptance — the submitter got its
	// answer — but a done job only once its record is in the store.
	// Interrupted jobs keep their <fp>.req on purpose: their acceptance is
	// still owed a simulation, and the restart replays it.
	wasInterrupted := errors.Is(err, experiment.ErrInterrupted)
	settle := !wasInterrupted
	// A checkpointed run has already put its record into the store, which
	// is also its checkpoint directory.
	if err == nil && !j.Request.Checkpoint {
		if perr := s.store.Put(&experiment.Record{
			Fingerprint: j.Fingerprint,
			Benchmark:   j.Request.Benchmark,
			Config:      j.Request.Config,
			Budget:      j.Request.Budget,
			Mode:        j.Request.mode(),
			Stats:       stats,
		}); perr != nil {
			// The result is valid even if persisting it failed; the job
			// succeeds, and its kept <fp>.req makes a restart resimulate it.
			s.logf("job %s: result store write failed: %v", j.ID, perr)
			settle = false
		}
	}
	if settle {
		if rerr := os.Remove(s.reqPath(j.Fingerprint)); rerr != nil {
			s.logf("job %s: settling: %v", j.ID, rerr)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.simHist.observe(wall.Seconds())
	switch {
	case err == nil:
		j.status = StatusDone
		j.stats = stats
		s.completed++
		s.runCompleted++
		snap.AddCounters(&s.simTotal, stats)
		s.logf("job %s: done in %v", j.ID, wall.Round(time.Millisecond))
	case wasInterrupted:
		j.status = StatusInterrupted
		j.errMsg = err.Error()
		s.interrupted++
		s.runFailed++ // a run cut short counts as a failed simulation
		s.logf("job %s: interrupted by shutdown", j.ID)
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
		s.failed++
		s.runFailed++
		s.logf("job %s: failed: %v", j.ID, err)
	}
	s.retireLocked(j)
}

// retireLocked finishes a terminal job: it scrubs failed/interrupted
// fingerprints from the dedup index (the headline poisoning fix — a
// resubmitted failed fingerprint must re-run, not be answered with the
// stale terminal job forever), appends the job to the bounded retention
// ring, evicting the oldest terminal jobs beyond the cap, emits the
// terminal event, and unblocks waiters. Caller holds s.mu; the caller has
// already set status/errMsg/stats and bumped its counters.
func (s *Server) retireLocked(j *Job) {
	switch j.status {
	case StatusFailed, StatusInterrupted:
		if cur, ok := s.byFP[j.Fingerprint]; ok && cur == j {
			delete(s.byFP, j.Fingerprint)
		}
	}
	s.terminal = append(s.terminal, j)
	for len(s.terminal) > s.cfg.RetainJobs {
		old := s.terminal[0]
		s.terminal = s.terminal[1:]
		delete(s.jobs, old.ID)
		if cur, ok := s.byFP[old.Fingerprint]; ok && cur == old {
			delete(s.byFP, old.Fingerprint)
		}
	}
	s.emitEventLocked(j, Event{Type: j.status, Error: j.errMsg})
	close(j.done)
}

// Shutdown stops intake, interrupts queued and in-flight simulations, and
// waits (up to ctx) for the workers to drain. Checkpoint-mode runs stop at
// their next segment boundary with the newest checkpoint already persisted,
// so nothing beyond one segment of work is lost — and because queued and
// interrupted jobs keep their <fp>.req files, a restart replays them to
// completion rather than forgetting them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.interrupt)
		s.cond.Broadcast()
	}
	// Jobs still sitting in the queue will never be picked up (workers exit
	// on closed); resolve them so waiters unblock. Their <fp>.req files
	// stay, so a restart replays them.
	for _, j := range s.queue {
		j.status = StatusInterrupted
		j.errMsg = experiment.ErrInterrupted.Error()
		s.pending--
		s.interrupted++
		s.retireLocked(j)
	}
	s.queue = nil
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// view renders a job under s.mu.
func (s *Server) view(j *Job) jobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return jobView{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		Benchmark:   j.Request.Benchmark,
		Config:      j.Request.Config,
		Budget:      j.Request.Budget,
		Mode:        j.Request.mode(),
		Status:      j.status,
		Cached:      j.cached,
		Error:       j.errMsg,
		Stats:       j.stats,
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client hangup; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	j, status, err := s.Submit(req)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, s.view(j))
}

// batchItem is one row of a batch-submit response: the job view (when the
// row was accepted or joined) plus the per-row status code and error.
type batchItem struct {
	jobView
	Code  int    `json:"code"`
	Error string `json:"error,omitempty"`
}

// handleBatch accepts a whole sweep in one request: {"jobs": [Request...]}.
// Every row goes through the same admission, dedup (index + store), and
// durable acceptance as a single submission; the response carries one item per row
// in order, each with its own status code, so partial acceptance is
// explicit rather than all-or-nothing.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Jobs []Request `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch has no jobs"))
		return
	}
	items := make([]batchItem, len(req.Jobs))
	for i, jr := range req.Jobs {
		j, code, err := s.Submit(jr)
		items[i].Code = code
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		items[i].jobView = s.view(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": items})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait duration: %w", err))
			return
		}
		if d > 5*time.Minute {
			d = 5 * time.Minute
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

// handleList lists this process's retained jobs in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs { //ctcp:lint-ok maporder -- collected then sorted by seq below
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = s.view(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	fp, err := experiment.ParseFP(r.PathValue("fp"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fingerprint must be a 64-bit hex value"))
		return
	}
	rec, ok := s.store.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result for fingerprint %s", experiment.FormatFP(fp)))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
