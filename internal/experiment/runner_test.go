package experiment

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/workload"
)

// hookRunner returns a Runner whose simulation function is replaced by fn,
// so tests can count executions and inject failures without paying for real
// cycle-level runs.
func hookRunner(opts Options, fn func(cfg pipeline.Config) (*pipeline.Stats, error)) *Runner {
	if opts.Budget == 0 {
		opts.Budget = 1_000
	}
	opts.RunFn = func(_ *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error) {
		return fn(cfg)
	}
	return NewRunner(opts)
}

// TestRunSameKeyExactlyOnce is the duplicate-work regression test: N
// goroutines request the same key concurrently and exactly one underlying
// simulation may execute.
func TestRunSameKeyExactlyOnce(t *testing.T) {
	var runs atomic.Int64
	r := hookRunner(Options{Parallelism: 8}, func(pipeline.Config) (*pipeline.Stats, error) {
		runs.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return &pipeline.Stats{Cycles: 123}, nil
	})
	bm, _ := workload.ByName("gzip")

	const N = 64
	results := make([]*pipeline.Stats, N)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(N)
	for i := 0; i < N; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i] = r.Run(bm, "base", BaseConfig())
		}(i)
	}
	start.Done()
	done.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("same key simulated %d times, want exactly 1", n)
	}
	for i, s := range results {
		if s != results[0] || s == nil {
			t.Fatalf("caller %d got a different stats pointer", i)
		}
	}
	st := r.Stats()
	if st.Started != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 started / 1 completed", st)
	}
	if st.Deduped+st.CacheHits != N-1 {
		t.Errorf("deduped %d + hits %d, want %d joiners", st.Deduped, st.CacheHits, N-1)
	}
}

// robConfig returns the base configuration with an n-entry ROB: a distinct
// run fingerprint per n, for tests whose hooked runs never simulate.
func robConfig(n int) pipeline.Config {
	cfg := BaseConfig()
	cfg.ROBSize = n
	return cfg
}

// TestRunDistinctKeysAllExecute checks singleflight does not over-collapse:
// distinct configurations each simulate once, concurrently.
func TestRunDistinctKeysAllExecute(t *testing.T) {
	var runs atomic.Int64
	r := hookRunner(Options{Parallelism: 4}, func(pipeline.Config) (*pipeline.Stats, error) {
		runs.Add(1)
		return &pipeline.Stats{Cycles: 1}, nil
	})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for _, bm := range workload.Selected() {
		for i, key := range keys {
			wg.Add(1)
			go func(bm workload.Benchmark, key string, cfg pipeline.Config) {
				defer wg.Done()
				r.Run(bm, key, cfg)
			}(bm, key, robConfig(64+i))
		}
	}
	wg.Wait()
	want := int64(len(keys) * len(workload.Selected()))
	if n := runs.Load(); n != want {
		t.Fatalf("ran %d simulations, want %d", n, want)
	}
}

// TestRunIdentityIsFingerprint: the runner identifies a run by its
// fingerprint, not by the label its caller gives it. One configuration
// requested under two labels simulates once and both callers share its
// stats; one label reused for a second configuration simulates that
// configuration too, and its caller gets the second configuration's stats.
func TestRunIdentityIsFingerprint(t *testing.T) {
	var runs atomic.Int64
	r := hookRunner(Options{Parallelism: 2}, func(cfg pipeline.Config) (*pipeline.Stats, error) {
		runs.Add(1)
		return &pipeline.Stats{Cycles: int64(cfg.ROBSize)}, nil
	})
	bm, _ := workload.ByName("gzip")

	base := r.Run(bm, "base", robConfig(128))
	sweep := r.Run(bm, "sweep/rob-entries/128/base", robConfig(128))
	if n := runs.Load(); n != 1 {
		t.Fatalf("one configuration under two labels simulated %d times, want 1", n)
	}
	if base == nil || sweep != base {
		t.Fatalf("the second label got %p, want the first label's stats %p", sweep, base)
	}

	small := r.Run(bm, "base", robConfig(64))
	if n := runs.Load(); n != 2 {
		t.Fatalf("one label with two configurations simulated %d times, want 2", n)
	}
	if small == nil || small.Cycles != 64 || base.Cycles != 128 {
		t.Fatalf("a reused label returned %+v (first configuration %+v), want each configuration's own stats", small, base)
	}
	if st := r.Stats(); st.Started != 2 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 started and 1 cache hit", st)
	}
}

// TestRunFnPanicKeepsStack: a panic escaping a RunFn hook comes back as a
// *pipeline.SimError carrying the stack of the panicking goroutine, like a
// panic inside the model does.
func TestRunFnPanicKeepsStack(t *testing.T) {
	r := hookRunner(Options{}, func(pipeline.Config) (*pipeline.Stats, error) {
		panic("injected: hook fault")
	})
	bm, _ := workload.ByName("gzip")
	_, err := r.RunErr(bm, "base", BaseConfig())
	var se *pipeline.SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *pipeline.SimError", err, err)
	}
	if !strings.Contains(se.Stack, "TestRunFnPanicKeepsStack") {
		t.Errorf("SimError.Stack does not reach the panicking hook:\n%s", se.Stack)
	}
}

// TestRunErrRecordsFailureWithoutPoisoning injects a panicking config and
// checks it yields a SimError for its own key while other keys keep working.
func TestRunErrRecordsFailureWithoutPoisoning(t *testing.T) {
	r := hookRunner(Options{Parallelism: 4}, func(cfg pipeline.Config) (*pipeline.Stats, error) {
		if cfg.ROBSize < 0 {
			panic("injected: pathological configuration")
		}
		return &pipeline.Stats{Cycles: 7}, nil
	})
	bm, _ := workload.ByName("gzip")
	bad := BaseConfig()
	bad.ROBSize = -1

	s, err := r.RunErr(bm, "bad", bad)
	if s != nil {
		t.Errorf("failed run returned stats %+v", s)
	}
	var se *pipeline.SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *pipeline.SimError", err, err)
	}
	if !strings.Contains(se.Reason, "injected") {
		t.Errorf("SimError.Reason = %q, want the panic value", se.Reason)
	}
	if r.Run(bm, "bad", bad) != nil {
		t.Error("cached failure returned non-nil stats")
	}

	// Other keys are unaffected.
	if s := r.Run(bm, "good", BaseConfig()); s == nil || s.Cycles != 7 {
		t.Fatalf("healthy key poisoned by failed neighbor: %+v", s)
	}

	errs := r.Errors()
	if len(errs) != 1 || errs["gzip/bad"] == nil {
		t.Errorf("Errors() = %v, want exactly gzip/bad", errs)
	}
	sum := r.FailureSummary()
	if !strings.Contains(sum, "gzip/bad") || !strings.Contains(sum, "1 simulation(s) failed") {
		t.Errorf("FailureSummary() = %q", sum)
	}
	st := r.Stats()
	if st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 failed / 1 completed", st)
	}
}

// TestPrefetchBoundedConcurrency drives a matrix far larger than the
// parallelism limit and asserts the worker pool never exceeds it.
func TestPrefetchBoundedConcurrency(t *testing.T) {
	const limit = 3
	var cur, peak atomic.Int64
	r := hookRunner(Options{Parallelism: limit}, func(pipeline.Config) (*pipeline.Stats, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return &pipeline.Stats{Cycles: 1}, nil
	})
	cfgs := map[string]pipeline.Config{}
	for i, key := range []string{"a", "b", "c", "d", "e"} {
		cfgs[key] = robConfig(64 + i)
	}
	r.Prefetch(workload.All(), cfgs)
	if p := peak.Load(); p > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", p, limit)
	}
	st := r.Stats()
	if want := uint64(len(workload.All()) * len(cfgs)); st.Started != want || st.Completed != want {
		t.Errorf("stats = %+v, want %d started and completed", st, want)
	}
}

// TestProgressEventsEmitted wires a progress callback and checks the event
// stream covers start, completion and failure, and that a cache hit emits
// nothing: only a simulation that actually runs is an event.
func TestProgressEventsEmitted(t *testing.T) {
	var mu sync.Mutex
	counts := map[ProgressKind]int{}
	opts := Options{Parallelism: 2, Progress: func(ev ProgressEvent) {
		mu.Lock()
		counts[ev.Kind]++
		mu.Unlock()
	}}
	r := hookRunner(opts, func(cfg pipeline.Config) (*pipeline.Stats, error) {
		if cfg.ROBSize < 0 {
			return nil, &pipeline.SimError{Reason: "injected"}
		}
		return &pipeline.Stats{Cycles: 1}, nil
	})
	bm, _ := workload.ByName("gzip")
	bad := BaseConfig()
	bad.ROBSize = -1
	r.Run(bm, "base", BaseConfig())
	r.Run(bm, "base", BaseConfig()) // cache hit
	r.Run(bm, "bad", bad)           // failure

	mu.Lock()
	defer mu.Unlock()
	if counts[RunStarted] != 2 || counts[RunCompleted] != 1 ||
		counts[RunFailed] != 1 || len(counts) != 3 {
		t.Errorf("event counts = %v", counts)
	}
	if st := r.Stats(); st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
}

// TestProgressMayReenterRunner: the Progress callback may call back into
// the runner. Runner emits every event outside r.mu — a dynamic call that
// lockheld cannot see — so a callback that reads Stats and Errors on every
// event must not deadlock, in each mode that emits intra-run ticks. The
// second run of each key is a cache hit.
func TestProgressMayReenterRunner(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"checkpointed", Options{CheckpointDir: t.TempDir(), CheckpointEvery: 500}},
		{"sampled", Options{SampleInterval: 500, SampleDetail: 200}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r *Runner
			var events atomic.Int64
			opts := tc.opts
			opts.Budget = 2_000
			opts.Progress = func(ProgressEvent) {
				r.Stats()
				r.Errors()
				events.Add(1)
			}
			r = NewRunner(opts)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 2; i++ {
					if _, err := r.RunErr(bm, "base", BaseConfig()); err != nil {
						t.Errorf("run %d: %v", i, err)
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("runner deadlocked re-entered from its Progress callback")
			}
			if st := r.Stats(); st.Started != 1 || st.CacheHits != 1 {
				t.Errorf("stats = %+v, want 1 started and 1 cache hit", st)
			}
			if events.Load() < 2 {
				t.Errorf("%d progress events, want at least start and done", events.Load())
			}
		})
	}
}

// TestRunRealSimulationStillWorks exercises the unhooked path end to end:
// the default runFn must produce real stats and honor the budget.
func TestRunRealSimulationStillWorks(t *testing.T) {
	r := NewRunner(Options{Budget: 20_000})
	bm, _ := workload.ByName("gzip")
	s, err := r.RunErr(bm, "base", BaseConfig())
	if err != nil || s == nil {
		t.Fatalf("RunErr = %v, %v", s, err)
	}
	if s.Retired != r.Budget() {
		t.Errorf("retired %d, want %d", s.Retired, r.Budget())
	}
}

// TestRunRealPathologicalConfigDegrades runs the genuine simulator (no
// hook) under a broken geometry and checks graceful degradation end to end.
func TestRunRealPathologicalConfigDegrades(t *testing.T) {
	r := NewRunner(Options{Budget: 5_000})
	bm, _ := workload.ByName("gzip")
	bad := BaseConfig()
	bad.Geom.Clusters = 0 // slot steering has no valid target cluster
	s, err := r.RunErr(bm, "broken-geom", bad)
	if s != nil {
		t.Errorf("stats = %+v, want nil", s)
	}
	var se *pipeline.SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *pipeline.SimError", err, err)
	}
	// The rest of the sweep proceeds.
	if s := r.Run(bm, "base", BaseConfig()); s == nil {
		t.Fatal("healthy run failed after pathological one")
	}
	if r.FailureSummary() == "" {
		t.Error("failure not surfaced in summary")
	}
}

// TestEveryPrefetchedRunIsRead renders each artifact on its own runner at a
// tiny budget. An artifact must read back every run it prefetches: a
// simulation only Prefetch requested is one no table prints.
func TestEveryPrefetchedRunIsRead(t *testing.T) {
	for _, a := range []struct {
		name string
		run  func(*Runner)
	}{
		{"table1", func(r *Runner) { Table1(r) }},
		{"fig4", func(r *Runner) { Figure4(r) }},
		{"table2", func(r *Runner) { Table2(r) }},
		{"fig5", func(r *Runner) { Figure5(r) }},
		{"table3", func(r *Runner) { Table3(r) }},
		{"fig6", func(r *Runner) { Figure6(r) }},
		{"table8", func(r *Runner) { Table8(r) }},
		{"fig7", func(r *Runner) { Figure7(r) }},
		{"table9", func(r *Runner) { Table9(r) }},
		{"table10", func(r *Runner) { Table10(r) }},
		{"fig8", func(r *Runner) { Figure8(r) }},
		{"ablation", func(r *Runner) { Ablation(r) }},
		{"fig9", func(r *Runner) { Figure9(r) }},
		{"sweep-tc", func(r *Runner) { SweepTraceCache(r) }},
		{"sweep-rob", func(r *Runner) { SweepROB(r) }},
		{"sweep-hop", func(r *Runner) { SweepHopLatency(r) }},
	} {
		r := NewRunner(Options{Budget: 2_000, Parallelism: 2})
		a.run(r)
		if unread := r.Unread(); len(unread) != 0 {
			t.Errorf("%s: %d of %d simulations never read: %v", a.name, len(unread), r.Stats().Started, unread)
		}
	}
}

// TestSlotReuseIsExact runs a sequence that changes geometry between runs
// on one simulation slot, so every run Resets the pipeline the previous
// one left: cluster count and widths, ROB size up and down, and a rejected
// configuration followed by a good run. Each result must equal a fresh
// pipeline's, and the rejected run must come back as a *SimError.
func TestSlotReuseIsExact(t *testing.T) {
	const budget = 5_000
	r := NewRunner(Options{Budget: budget, Parallelism: 1})
	bad := BaseConfig()
	bad.Geom.Clusters = 0
	steps := []struct {
		bench string
		label string
		cfg   pipeline.Config
	}{
		{"gzip", "2x4/base", fig8Variant("2x4")},
		{"gzip", "base", BaseConfig()},
		{"bzip2", "rob256", robConfig(256)},
		{"bzip2", "rob128", robConfig(128)},
		{"gzip", "bad", bad},
		{"vpr", "fdrt", StrategyConfigs()["fdrt"]},
	}
	for _, st := range steps {
		bm, _ := workload.ByName(st.bench)
		got, err := r.RunErr(bm, st.label, st.cfg)
		cfg := st.cfg
		cfg.MaxInsts = budget
		want, wantErr := pipeline.RunProgramErr(bm.ProgramFor(budget), cfg)
		if wantErr != nil {
			var se *pipeline.SimError
			if got != nil || !errors.As(err, &se) {
				t.Errorf("%s/%s: got %v, %v; want a *pipeline.SimError like a fresh pipeline's %v", st.bench, st.label, got, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s/%s: %v", st.bench, st.label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: reused slot's stats differ from a fresh pipeline's:\n got %+v\nwant %+v", st.bench, st.label, *got, *want)
		}
	}
	if s := r.Stats(); s.Started != uint64(len(steps)) || s.Failed != 1 {
		t.Errorf("runner stats = %+v, want %d simulated and 1 failed", s, len(steps))
	}
}
