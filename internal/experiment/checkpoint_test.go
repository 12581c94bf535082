package experiment

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

const (
	ckptBudget = uint64(20_000)
	ckptEvery  = uint64(5_000)
)

// segmentedReference runs gzip/base in memory with the same segment
// schedule the checkpointed runner uses (pauses at every multiple of
// ckptEvery), which is the bit-exact baseline a resumed run must match.
func segmentedReference(t *testing.T) *pipeline.Stats {
	t.Helper()
	return segmentedRun(t, "gzip", BaseConfig(), ckptBudget, ckptEvery)
}

// segmentedRun is segmentedReference for any benchmark, config and schedule.
func segmentedRun(t *testing.T, bench string, cfg pipeline.Config, budget, every uint64) *pipeline.Stats {
	t.Helper()
	bm, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	cfg.MaxInsts = 0
	p := pipeline.New(&emu.LimitStream{S: emu.New(bm.ProgramFor(budget)), Budget: budget}, cfg)
	for next := every; ; next += every {
		if next > budget {
			next = budget
		}
		if p.RunTo(next) || p.Consumed() >= budget {
			break
		}
	}
	return p.Finish()
}

// ckptPath names the checkpoint a runner with opts keeps for gzip/base.
func ckptPath(opts Options) string {
	return filepath.Join(opts.CheckpointDir, FormatFP(RunFingerprint("gzip", BaseConfig(), opts))+".ckpt")
}

// TestCheckpointedRunMatchesSegmented: a checkpointed run puts its store
// record, removes its checkpoint, matches the in-memory segmented reference
// exactly, and a second runner over the same directory returns the
// identical stats straight from the store.
func TestCheckpointedRunMatchesSegmented(t *testing.T) {
	dir := t.TempDir()
	want := segmentedReference(t)
	bm, _ := workload.ByName("gzip")

	opts := Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}
	r := NewRunner(opts)
	got, err := r.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Errorf("checkpointed run diverged from segmented reference\n want %s\n got  %s", wj, gj)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := st.Get(RunFingerprint("gzip", BaseConfig(), opts))
	if !ok {
		t.Fatal("store record missing")
	}
	if rec.Benchmark != "gzip" || rec.Config != "base" || rec.Budget != ckptBudget || rec.Mode != "checkpointed" {
		t.Errorf("record labels %+v", rec)
	}
	if _, err := os.Stat(ckptPath(opts)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion (err=%v)", err)
	}

	// A fresh runner answers from the store without resimulating.
	r2 := NewRunner(opts)
	got2, err := r2.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got2) {
		t.Error("store-answered stats differ from the original run")
	}
}

// TestCheckpointedResumeFromPlantedCheckpoint simulates an interrupted
// sweep: the first segment's checkpoint is on disk (written through the
// public Snapshot path) with no record, and the runner must pick it up
// and finish bit-identically to the uninterrupted segmented run.
func TestCheckpointedResumeFromPlantedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	want := segmentedReference(t)
	bm, _ := workload.ByName("gzip")

	cfg := BaseConfig()
	cfg.MaxInsts = 0
	p := pipeline.New(&emu.LimitStream{S: emu.New(bm.ProgramFor(ckptBudget)), Budget: ckptBudget}, cfg)
	if p.RunTo(ckptEvery) {
		t.Fatal("stream exhausted during the first segment")
	}
	opts := Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}
	w := snap.NewWriter()
	fp := RunFingerprint("gzip", BaseConfig(), opts)
	w.Begin("run")
	w.U64(&fp)
	w.End()
	p.Snapshot(w)
	if err := snap.WriteFile(ckptPath(opts), w); err != nil {
		t.Fatal(err)
	}

	r := NewRunner(opts)
	got, err := r.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Errorf("resumed run diverged from uninterrupted segmented run\n want %s\n got  %s", wj, gj)
	}
}

// TestCheckpointedCorruptCheckpointRestarts: an undecodable checkpoint is
// discarded and the run completes from scratch instead of failing.
func TestCheckpointedCorruptCheckpointRestarts(t *testing.T) {
	opts := Options{Budget: ckptBudget, CheckpointDir: t.TempDir(), CheckpointEvery: ckptEvery}
	if err := os.WriteFile(ckptPath(opts), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	bm, _ := workload.ByName("gzip")
	r := NewRunner(opts)
	got, err := r.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := segmentedReference(t); !reflect.DeepEqual(want, got) {
		t.Error("restarted run diverged from segmented reference")
	}
}

// TestCheckpointedBudgetChangeResimulates is the stale-result regression
// test: a completed run's record must only satisfy reruns with the same
// budget. Rerunning the same key over the same directory at double the
// budget has to produce fresh full-length stats, never the old record's.
func TestCheckpointedBudgetChangeResimulates(t *testing.T) {
	dir := t.TempDir()
	bm, _ := workload.ByName("gzip")

	first, err := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if first.Retired != ckptBudget {
		t.Fatalf("first run retired %d, want %d", first.Retired, ckptBudget)
	}

	second, err := NewRunner(Options{Budget: 2 * ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if second.Retired != 2*ckptBudget {
		t.Fatalf("rerun at budget %d served stale stats: retired %d", 2*ckptBudget, second.Retired)
	}

	// The store now holds both budgets' runs, each under its own
	// fingerprint, and answers each budget with its own stats.
	again, err := NewRunner(Options{Budget: 2 * ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, again) {
		t.Error("record reread at the same budget differs from the run that wrote it")
	}
	back, err := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, back) {
		t.Error("returning to the original budget did not reproduce the original stats")
	}
}

// TestCheckpointedStaleCheckpointDiscarded plants a mid-run checkpoint
// written under a different budget (whose snapshotted LimitStream still
// carries that budget) at the new budget's file name, as a rename or copy
// would, and checks the run at the new budget refuses it by its embedded
// fingerprint and restarts from scratch instead of resuming into the wrong
// budget.
func TestCheckpointedStaleCheckpointDiscarded(t *testing.T) {
	dir := t.TempDir()
	bm, _ := workload.ByName("gzip")

	// Build the stale checkpoint exactly as a killed old-budget run would
	// have left it: fingerprinted for ckptBudget, one segment in.
	oldOpts := Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}
	cfg := BaseConfig()
	cfg.MaxInsts = 0
	p := pipeline.New(&emu.LimitStream{S: emu.New(bm.ProgramFor(ckptBudget)), Budget: ckptBudget}, cfg)
	if p.RunTo(ckptEvery) {
		t.Fatal("stream exhausted during the first segment")
	}
	w := snap.NewWriter()
	fp := RunFingerprint("gzip", BaseConfig(), oldOpts)
	w.Begin("run")
	w.U64(&fp)
	w.End()
	p.Snapshot(w)
	newOpts := Options{Budget: 2 * ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}
	if err := snap.WriteFile(ckptPath(newOpts), w); err != nil {
		t.Fatal(err)
	}

	newBudget := newOpts.Budget
	got, err := NewRunner(newOpts).RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Retired != newBudget {
		t.Fatalf("run resumed a stale checkpoint: retired %d, want %d", got.Retired, newBudget)
	}
}

// TestRunnerInterrupt: a closed Interrupt channel makes pending runs return
// ErrInterrupted instead of simulating, and a checkpointed rerun without the
// interrupt completes normally afterwards.
func TestRunnerInterrupt(t *testing.T) {
	dir := t.TempDir()
	bm, _ := workload.ByName("gzip")
	stop := make(chan struct{})
	close(stop)
	r := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery, Interrupt: stop})
	if _, err := r.RunErr(bm, "base", BaseConfig()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	got, err := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := segmentedReference(t); !reflect.DeepEqual(want, got) {
		t.Error("post-interrupt rerun diverged from segmented reference")
	}
}

// TestSampledRunnerDeterministic: the sampled runner path is reproducible
// and reports the estimate over the full budget.
func TestSampledRunnerDeterministic(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	opts := Options{Budget: ckptBudget, SampleInterval: 5_000, SampleDetail: 2_000, SampleWarmup: 1_000, SampleWorkers: 4}
	a, err := NewRunner(opts).RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(opts).RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two sampled runner executions differ")
	}
	if a.Retired != ckptBudget {
		t.Errorf("sampled stats cover %d insts, want %d", a.Retired, ckptBudget)
	}
	if a.Cycles == 0 {
		t.Error("sampled estimate has zero cycles")
	}
}

// TestSampledRunnerRecordsInvalidConfig: a sampled run of a configuration
// Validate rejects fails that run alone, recorded in the runner's failures,
// instead of crashing the process from a sampling worker.
func TestSampledRunnerRecordsInvalidConfig(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	r := NewRunner(Options{Budget: ckptBudget, SampleInterval: 5_000, SampleDetail: 2_000, SampleWorkers: 2})
	bad := BaseConfig()
	bad.ROBSize = 0
	if s, err := r.RunErr(bm, "bad", bad); err == nil {
		t.Fatalf("ROBSize 0 simulated: %+v", s)
	}
	if _, err := r.RunErr(bm, "base", BaseConfig()); err != nil {
		t.Fatalf("healthy run after a failed one: %v", err)
	}
	if errs := r.Errors(); len(errs) != 1 || errs["gzip/bad"] == nil {
		t.Errorf("Errors() = %v, want exactly gzip/bad", errs)
	}
	if st := r.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 failed / 1 completed", st)
	}
}

// TestSampledAndCheckpointedExclusive: configuring both modes is a per-run
// error, not a silent precedence choice.
func TestSampledAndCheckpointedExclusive(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	r := NewRunner(Options{Budget: 1_000, SampleInterval: 500, CheckpointDir: t.TempDir()})
	if _, err := r.RunErr(bm, "base", BaseConfig()); err == nil {
		t.Fatal("mutually exclusive modes accepted")
	}
}
