package sample

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/prog"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

func benchProgram(t testing.TB, name string, insts uint64) *workloadProg {
	t.Helper()
	bm, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return &workloadProg{bm: bm, insts: insts}
}

type workloadProg struct {
	bm    workload.Benchmark
	insts uint64
}

func fdrtConfig() pipeline.Config {
	return pipeline.DefaultConfig().WithStrategy(core.FDRT, false)
}

// TestSampledIPCAccuracy: the sampled estimate must land within 2% of the
// monolithic run's IPC on the longest kernel. The entry region is measured
// exactly (it owns the real warm-up ramp); later regions measure a warmed
// window and scale it over their span. The simulator is deterministic, so
// the observed error is a fixed property of this configuration, not a
// statistical bound.
func TestSampledIPCAccuracy(t *testing.T) {
	const insts = 400_000
	p := benchProgram(t, "mcf", insts)

	cfg := fdrtConfig()
	cfg.MaxInsts = insts
	full := pipeline.RunProgram(p.bm.ProgramFor(insts), cfg)
	fullIPC := full.IPC()

	res, err := Run(p.bm.ProgramFor(insts), fdrtConfig(), Options{
		Interval: 50_000,
		Detail:   25_000,
		Warmup:   12_500,
		Workers:  2,
		MaxInsts: insts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInsts != insts {
		t.Fatalf("sampled run covered %d insts, want %d", res.TotalInsts, insts)
	}
	if len(res.Regions) != 8 {
		t.Fatalf("got %d regions, want 8", len(res.Regions))
	}
	ipc := res.IPC()
	if relErr := math.Abs(ipc-fullIPC) / fullIPC; relErr > 0.02 {
		t.Errorf("sampled IPC %.4f vs full %.4f: relative error %.2f%% exceeds 2%%",
			ipc, fullIPC, 100*relErr)
	}
}

// TestSampledDetailWindow: Detail < Interval scales the estimate over each
// region's span, and only Detail instructions per region run in detail.
func TestSampledDetailWindow(t *testing.T) {
	const insts = 40_000
	p := benchProgram(t, "gzip", insts)
	res, err := Run(p.bm.ProgramFor(insts), fdrtConfig(), Options{
		Interval: 10_000,
		Detail:   2_500,
		Workers:  2,
		MaxInsts: insts,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Region 0 runs its whole span in detail; the rest run the 2500-inst
	// window and scale by 4.
	if want := uint64(10_000 + 3*2_500); res.DetailedInsts != want {
		t.Errorf("detailed insts %d, want %d", res.DetailedInsts, want)
	}
	for _, reg := range res.Regions {
		wantInsts := uint64(2_500)
		if reg.Index == 0 {
			wantInsts = 10_000
		}
		if reg.Insts != wantInsts || reg.SpanInsts != 10_000 {
			t.Errorf("region %d: detail %d span %d, want %d/10000", reg.Index, reg.Insts, reg.SpanInsts, wantInsts)
		}
		want := float64(reg.Cycles) * float64(reg.SpanInsts) / float64(reg.Insts)
		if math.Abs(reg.EstCycles-want) > 1e-9 {
			t.Errorf("region %d: estimated %.1f cycles, want %.1f", reg.Index, reg.EstCycles, want)
		}
	}
	if res.Stats.Retired != res.DetailedInsts {
		t.Errorf("summed stats retired %d, want %d", res.Stats.Retired, res.DetailedInsts)
	}
}

// TestSampledDeterministic: worker scheduling must not leak into the
// result — two runs with a full pool are identical.
func TestSampledDeterministic(t *testing.T) {
	const insts = 30_000
	p := benchProgram(t, "mcf", insts)
	opts := Options{Interval: 6_000, Detail: 2_000, Workers: 4, MaxInsts: insts}
	a, err := Run(p.bm.ProgramFor(insts), fdrtConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p.bm.ProgramFor(insts), fdrtConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two sampled runs with 4 workers produced different results")
	}
}

// replayFresh recomputes Run's Result one region after another, restoring
// each checkpoint into a new emulator (emu.New) and simulating it on a new
// pipeline (pipeline.New), the way cmd/ctcpperf's replay does. It shares no
// code with Run's workers, which reuse one emulator and one pipeline each,
// so equal Results pin that reuse against rebuilding.
func replayFresh(t *testing.T, prog *isa.Program, cfg pipeline.Config, opts Options) *Result {
	t.Helper()
	type start struct {
		at, span uint64
		ckpt     []byte
	}
	var starts []start
	m := emu.New(prog)
	res := &Result{}
	for res.TotalInsts < opts.MaxInsts {
		span := min(opts.Interval, opts.MaxInsts-res.TotalInsts)
		w := snap.NewWriter()
		m.Snapshot(w)
		ckpt, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		var n uint64
		for n < span {
			if _, ok := m.Next(); !ok {
				break
			}
			n++
		}
		if n == 0 {
			break
		}
		starts = append(starts, start{res.TotalInsts, n, ckpt})
		res.TotalInsts += n
		if n < span {
			break
		}
	}
	for idx, s := range starts {
		detail, warm := min(opts.Detail, s.span), opts.Warmup
		if idx == 0 {
			detail, warm = s.span, 0
		}
		if warm >= detail {
			warm = detail / 2
		}
		rm := emu.New(prog)
		r, err := snap.NewReader(s.ckpt)
		if err != nil {
			t.Fatal(err)
		}
		rm.Restore(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		p := pipeline.New(&emu.LimitStream{S: rm, Budget: detail}, cfg)
		reg := Region{Index: idx, StartInst: s.at, SpanInsts: s.span}
		if warm > 0 {
			p.RunTo(warm)
			reg.WarmCycles, reg.WarmInsts = p.CurrentCycle(), p.Retired()
		}
		p.RunTo(0)
		st := p.Finish()
		reg.Insts, reg.Cycles = st.Retired-reg.WarmInsts, st.Cycles-reg.WarmCycles
		if reg.Insts > 0 {
			reg.EstCycles = float64(reg.Cycles) * float64(s.span) / float64(reg.Insts)
		}
		res.Regions = append(res.Regions, reg)
		res.DetailedInsts += reg.WarmInsts + reg.Insts
		res.DetailedCycles += reg.WarmCycles + reg.Cycles
		res.EstimatedCycles += reg.EstCycles
		snap.AddCounters(&res.Stats, st)
	}
	return res
}

// TestSampledMatchesFreshPipelines: Run, whose workers each reuse one
// emulator and one pipeline across regions and start them while the forward
// pass is still running, returns exactly the Result of finishing the forward
// pass first and then restoring and simulating every region in order on a
// new emulator and pipeline. That holds for every pool size, for a program
// that halts partway through the schedule, and for a budget that ends
// mid-interval.
func TestSampledMatchesFreshPipelines(t *testing.T) {
	const insts, interval = 100_000, 12_500
	type schedule struct {
		name     string
		prog     *isa.Program
		maxInsts uint64
		ragged   bool // the last region is shorter than the interval
	}
	var cases []schedule
	for _, name := range []string{"gzip", "mcf", "eon", "vortex"} {
		cases = append(cases, schedule{name, benchProgram(t, name, insts).bm.ProgramFor(insts), insts, false})
	}
	cases = append(cases,
		// Sized for 60k, gzip halts inside the fifth of eight intervals.
		schedule{"gzip/halts-mid-schedule", benchProgram(t, "gzip", 60_000).bm.ProgramFor(60_000), insts, true},
		// The budget ends 9.5k into the eighth interval.
		schedule{"mcf/ragged-budget", benchProgram(t, "mcf", insts).bm.ProgramFor(insts), insts - 3_000, true},
	)
	for _, c := range cases {
		for _, k := range []core.StrategyKind{core.FDRT, core.IssueTime, core.Friendly} {
			cfg := pipeline.DefaultConfig().WithStrategy(k, false)
			opts := Options{Interval: interval, Detail: 2_500, Warmup: 1_000, MaxInsts: c.maxInsts}
			want := replayFresh(t, c.prog, cfg, opts)
			if last := want.Regions[len(want.Regions)-1]; c.ragged != (last.SpanInsts < interval) {
				t.Fatalf("%s: last region spans %d insts; the case needs ragged=%v", c.name, last.SpanInsts, c.ragged)
			}
			for _, workers := range []int{1, 2, 4} {
				opts.Workers = workers
				got, err := Run(c.prog, cfg, opts)
				if err != nil {
					t.Fatalf("%s/%v/%d workers: %v", c.name, k, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v/%d workers: Run's result differs from fresh-pipeline replay\n run    %+v\n replay %+v", c.name, k, workers, got, want)
				}
			}
		}
	}
}

// TestSampledOnRegionTotal: OnRegion reports the planned schedule length as
// its total, so a program that halts early finishes with fewer callbacks
// than that total — one per region, with done never past total.
func TestSampledOnRegionTotal(t *testing.T) {
	p := benchProgram(t, "gzip", 30_000)
	const interval, maxInsts = 10_000, 95_000 // a planned schedule of 10 regions
	var mu sync.Mutex
	var calls, maxDone int
	res, err := Run(p.bm.ProgramFor(30_000), fdrtConfig(), Options{
		Interval: interval,
		Detail:   2_000,
		Workers:  3,
		MaxInsts: maxInsts,
		OnRegion: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			maxDone = max(maxDone, done)
			if total != 10 {
				t.Errorf("OnRegion total %d, want the planned 10", total)
			}
			if done > total {
				t.Errorf("OnRegion done %d > total %d", done, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Regions); n >= 10 {
		t.Fatalf("%d regions: the program was meant to halt before the schedule ends", n)
	}
	if calls != len(res.Regions) || maxDone != len(res.Regions) {
		t.Errorf("%d callbacks reaching done=%d, want one per region (%d)", calls, maxDone, len(res.Regions))
	}
}

// TestSampledInvalidConfig: a configuration Validate rejects is Run's
// error, returned before the forward pass, instead of a panic on a worker
// goroutine that no caller's recover can reach.
func TestSampledInvalidConfig(t *testing.T) {
	p := benchProgram(t, "gzip", 10_000)
	cfg := fdrtConfig()
	cfg.ROBSize = 0
	res, err := Run(p.bm.ProgramFor(10_000), cfg, Options{Interval: 2_500, MaxInsts: 10_000, Workers: 2})
	if err == nil {
		t.Fatalf("ROBSize 0 accepted: %+v", res)
	}
}

// TestSampledRegionPanicRecovered: a panic inside one region's simulation
// becomes that region's *pipeline.SimError, with the panic and its stack,
// and the worker that hit it simulates its next region exactly as a new
// worker would.
func TestSampledRegionPanicRecovered(t *testing.T) {
	prog := benchProgram(t, "gzip", 10_000).bm.ProgramFor(10_000)
	w := snap.NewWriter()
	emu.New(prog).Snapshot(w)
	ckpt, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	newWorker := func() *worker { return &worker{m: emu.New(prog), p: new(pipeline.Pipeline)} }

	bad := fdrtConfig()
	bad.ROBSize = 0 // Pipeline.Reset panics with *core.InvariantError
	wk := newWorker()
	_, s, err := wk.runRegion(bad, ckpt, 0, 5_000, 5_000, 0)
	var se *pipeline.SimError
	if !errors.As(err, &se) || s != nil {
		t.Fatalf("runRegion = (%v, %v), want nil stats and a *pipeline.SimError", s, err)
	}
	if !strings.Contains(se.Reason, "ROBSize") || se.Stack == "" {
		t.Errorf("SimError lacks the panic or its stack: %+v", se)
	}

	reg, s, err := wk.runRegion(fdrtConfig(), ckpt, 0, 5_000, 2_000, 500)
	if err != nil {
		t.Fatal(err)
	}
	wantReg, wantS, err := newWorker().runRegion(fdrtConfig(), ckpt, 0, 5_000, 2_000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if reg != wantReg || !reflect.DeepEqual(s, wantS) {
		t.Errorf("worker after a recovered panic: %+v, want a new worker's %+v", reg, wantReg)
	}
}

// TestSampledOptionValidation: the two required knobs fail loudly.
func TestSampledOptionValidation(t *testing.T) {
	p := benchProgram(t, "gzip", 1_000)
	if _, err := Run(p.bm.ProgramFor(1_000), fdrtConfig(), Options{MaxInsts: 1_000}); err == nil {
		t.Error("Interval 0 accepted")
	}
	if _, err := Run(p.bm.ProgramFor(1_000), fdrtConfig(), Options{Interval: 100}); err == nil {
		t.Error("MaxInsts 0 accepted")
	}
}

// straightLine builds a program with an exactly known committed-instruction
// count (measured with a functional run, so HALT/OUT accounting can never
// drift from the emulator's) and an even count for clean halving.
func straightLine(t *testing.T, ops int) (*isa.Program, uint64) {
	t.Helper()
	build := func(ops int) *isa.Program {
		b := prog.New()
		for i := 0; i < ops; i++ {
			b.OpI(isa.ADD, isa.R(5), 1, isa.R(5))
		}
		b.Out(isa.R(5))
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := build(ops)
	n, err := emu.New(p).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if n%2 == 1 {
		p = build(ops + 1)
		if n, err = emu.New(p).Run(0); err != nil {
			t.Fatal(err)
		}
	}
	return p, n
}

// TestSampleHaltOnRegionBoundary: a program that halts exactly at a region
// boundary must not produce a phantom trailing region — the checkpoint taken
// at the boundary stands for zero instructions and is dropped.
func TestSampleHaltOnRegionBoundary(t *testing.T) {
	p, n := straightLine(t, 62)
	res, err := Run(p, fdrtConfig(), Options{
		Interval: n / 2,
		MaxInsts: 2 * n, // the budget outlives the program: it halts first
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 2 {
		t.Fatalf("got %d regions, want 2 (no phantom region after the halt boundary)", len(res.Regions))
	}
	if res.TotalInsts != n {
		t.Errorf("TotalInsts %d, want the program's %d", res.TotalInsts, n)
	}
	for i, reg := range res.Regions {
		if reg.SpanInsts != n/2 {
			t.Errorf("region %d span %d, want %d", i, reg.SpanInsts, n/2)
		}
		if reg.StartInst != uint64(i)*n/2 {
			t.Errorf("region %d starts at %d, want %d", i, reg.StartInst, uint64(i)*n/2)
		}
	}
	// Full-detail regions: the estimate is the measured cycles, unscaled.
	if res.DetailedInsts != n || res.Stats.Retired != n {
		t.Errorf("detailed %d insts (stats %d), want %d", res.DetailedInsts, res.Stats.Retired, n)
	}
	if res.EstimatedCycles != float64(res.DetailedCycles) {
		t.Errorf("EstimatedCycles %.1f, want exactly the measured %d", res.EstimatedCycles, res.DetailedCycles)
	}
	if res.EstimatedCycles <= 0 || res.IPC() <= 0 {
		t.Errorf("degenerate estimate: %.1f cycles, IPC %.3f", res.EstimatedCycles, res.IPC())
	}
}

// TestSampleSingleRegion: an interval at least as long as the program yields
// one region — the entry region — which is always measured whole and cold,
// so the estimate equals the detailed measurement exactly.
func TestSampleSingleRegion(t *testing.T) {
	p, n := straightLine(t, 50)
	res, err := Run(p, fdrtConfig(), Options{
		Interval: 3 * n,
		Warmup:   n, // must be ignored: region 0 is never warmed
		MaxInsts: 2 * n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(res.Regions))
	}
	reg := res.Regions[0]
	if reg.WarmInsts != 0 || reg.WarmCycles != 0 {
		t.Errorf("entry region warmed (%d insts, %d cycles); it owns the true cold ramp", reg.WarmInsts, reg.WarmCycles)
	}
	if res.TotalInsts != n || reg.SpanInsts != n || reg.Insts != n {
		t.Errorf("insts: total %d span %d detailed %d, all want %d", res.TotalInsts, reg.SpanInsts, reg.Insts, n)
	}
	if res.EstimatedCycles != float64(reg.Cycles) || res.EstimatedCycles != float64(res.DetailedCycles) {
		t.Errorf("single whole region must not scale: est %.1f, measured %d", res.EstimatedCycles, reg.Cycles)
	}
}

// TestSampleWarmupClamped: a Warmup that would leave no measured
// instructions is clamped to half the detailed window, keeping every
// non-entry region's measurement non-empty.
func TestSampleWarmupClamped(t *testing.T) {
	const insts = 20_000
	p := benchProgram(t, "gzip", insts)
	const interval, detail = 5_000, 2_000
	res, err := Run(p.bm.ProgramFor(insts), fdrtConfig(), Options{
		Interval: interval,
		Detail:   detail,
		Warmup:   interval, // >= the window: would consume the whole budget
		MaxInsts: insts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInsts != insts {
		t.Fatalf("TotalInsts %d, want %d", res.TotalInsts, insts)
	}
	for _, reg := range res.Regions {
		if reg.Index == 0 {
			if reg.WarmInsts != 0 || reg.Insts != interval {
				t.Errorf("entry region: warm %d detailed %d, want 0/%d", reg.WarmInsts, reg.Insts, interval)
			}
			continue
		}
		if want := uint64(detail / 2); reg.WarmInsts != want {
			t.Errorf("region %d warmup %d, want clamp to %d", reg.Index, reg.WarmInsts, want)
		}
		if reg.Insts == 0 {
			t.Errorf("region %d has no measured instructions", reg.Index)
		}
		if reg.Insts+reg.WarmInsts != detail {
			t.Errorf("region %d warm %d + measured %d != window %d", reg.Index, reg.WarmInsts, reg.Insts, detail)
		}
	}
	if res.EstimatedCycles <= float64(res.DetailedCycles-res.Regions[0].Cycles) {
		t.Errorf("estimate %.1f does not cover the scaled-up regions", res.EstimatedCycles)
	}
}

// measureSpeedup runs the monolithic and sampled simulations once each and
// returns their wall times.
func measureSpeedup(tb testing.TB, insts uint64, workers int) (monolithic, sampled time.Duration, fullIPC, sampleIPC float64) {
	tb.Helper()
	bm, ok := workload.ByName("mcf")
	if !ok {
		tb.Fatal("mcf missing")
	}
	prog := bm.ProgramFor(insts)

	cfg := fdrtConfig()
	cfg.MaxInsts = insts
	t0 := time.Now()
	full := pipeline.RunProgram(prog, cfg)
	monolithic = time.Since(t0)

	t0 = time.Now()
	res, err := Run(prog, fdrtConfig(), Options{
		Interval: insts / 8,
		Detail:   insts / 16,
		Warmup:   insts / 32,
		Workers:  workers,
		MaxInsts: insts,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sampled = time.Since(t0)
	return monolithic, sampled, full.IPC(), res.IPC()
}

// TestSampledSpeedup asserts the headline acceptance number: sampled mode
// at 4 workers finishes the longest kernel at least 2x faster than the
// monolithic detailed run. Timing assertions need real parallel hardware
// and an uninstrumented build, so the test skips itself on small machines,
// under -race, and in -short runs.
func TestSampledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing test skipped under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("timing test needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	mono, samp, fullIPC, sampleIPC := measureSpeedup(t, 400_000, 4)
	speedup := float64(mono) / float64(samp)
	t.Logf("monolithic %v, sampled %v, speedup %.2fx, IPC %.4f vs %.4f",
		mono, samp, speedup, fullIPC, sampleIPC)
	if speedup < 2 {
		t.Errorf("sampled speedup %.2fx below the 2x bound (monolithic %v, sampled %v)", speedup, mono, samp)
	}
	if relErr := math.Abs(sampleIPC-fullIPC) / fullIPC; relErr > 0.02 {
		t.Errorf("sampled IPC %.4f vs full %.4f: relative error %.2f%% exceeds 2%%",
			sampleIPC, fullIPC, 100*relErr)
	}
}

// BenchmarkSampled reports the sampled-vs-monolithic speedup as a custom
// metric.
func BenchmarkSampled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mono, samp, _, _ := measureSpeedup(b, 200_000, 4)
		b.ReportMetric(float64(mono)/float64(samp), "speedup")
	}
}
