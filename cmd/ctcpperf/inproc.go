package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/trace"
	"ctcp/internal/workload"
)

// spec is one in-process workload: which kernels, how many instructions
// each simulation covers, the assignment strategy, and whether a simulation
// is a full detailed Run or a region-parallel sample.Run.
type spec struct {
	Kernels  []string          `json:"kernels"`
	Insts    uint64            `json:"insts"`
	Strategy core.StrategyKind `json:"strategy"`
	Sampled  bool              `json:"sampled"`
}

// minRuns is the fewest timed simulations the end-to-end latencies are
// taken over: enough that p90 keeps minTail samples beyond it.
const minRuns = 100

// inproc runs a spec inside this process.
type inproc struct {
	sp    spec
	cfg   pipeline.Config
	progs []*isa.Program
	tr    *tracer // nil when untraced
	ys    *yardstick
}

func newInproc(sp spec, tr *tracer, ys *yardstick) *inproc {
	cfg := pipeline.DefaultConfig().WithStrategy(sp.Strategy, false)
	if !sp.Sampled {
		cfg.MaxInsts = sp.Insts
	}
	return &inproc{sp: sp, cfg: cfg, tr: tr, ys: ys}
}

// setup is the work setup_s times: build every kernel's program (ProgramFor
// calibrates each with functional runs) and make one discarded warm-up
// simulation of the first kernel.
func (w *inproc) setup() error {
	root := w.tr.begin("setup", 0, 0)
	defer w.tr.end(root)
	for _, name := range w.sp.Kernels {
		bm, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown kernel %q", name)
		}
		id := w.tr.begin("workload.ProgramFor", root, 0)
		w.progs = append(w.progs, bm.ProgramFor(w.sp.Insts))
		w.tr.end(id)
	}
	_, _, err := w.simulate(0, nil, 0, 0)
	return err
}

// simulate runs kernel i once. It returns the simulated result (compared
// across rounds) and the instructions it covered. A panic inside the model
// becomes an error naming the kernel.
func (w *inproc) simulate(i int, tr *tracer, parent, run int) (res any, insts uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: simulation aborted: %v", w.sp.Kernels[i], r)
		}
	}()
	if w.sp.Sampled {
		return w.simulateSampled(i, tr, parent, run)
	}
	id := tr.begin("emu.New", parent, run)
	m := emu.New(w.progs[i])
	tr.end(id)
	id = tr.begin("pipeline.New", parent, run)
	p := pipeline.New(m, w.cfg)
	tr.end(id)
	id = tr.begin("pipeline.Run", parent, run)
	s := p.Run()
	tr.end(id)
	return s, s.Retired, nil
}

// timed is what the timed phase measured.
type timed struct {
	rounds    int
	runs      int // attempted simulations
	failed    int
	ns        [][]float64 // untraced ns/inst per run, by kernel, scaled by the yardstick
	secs      [][]float64 // untraced wall seconds per run, by kernel, scaled by the yardstick
	rawNs     []float64   // untraced ns/inst per run, unscaled
	passes    []float64   // yardstick pass times, ns
	tracedNs  []float64   // traced ns/inst per run (traced rounds only), unscaled
	rssMB     float64     // mean resident set over the untraced rounds
	allocs    uint64      // heap bytes allocated by untraced runs
	allocRuns int
	cpu       cpuSplit // CPU profile of the traced rounds
	gcSec     float64  // GC CPU time in the traced rounds, from runtime/metrics
	busySec   float64  // non-idle CPU time in the traced rounds
	first     []any    // round-1 result per kernel
	problems  []string
}

// run executes rounds until seconds have passed and the faster half of
// each kernel's untraced runs holds at least minRuns samples. Each round
// visits every kernel once in an order the seed permutes, so the seed never
// changes a simulated result. An untraced round passes the yardstick before
// its first run and after every run, and scales each run by the passes on
// either side of it. When traced, odd rounds record spans and a CPU profile
// (without yardstick passes, which would show in the profile) and even
// rounds stay untraced, so the same run yields the tracing overhead.
func (w *inproc) run(seed uint64, seconds float64) (*timed, error) {
	rng := rand.New(rand.NewPCG(seed, 0x63746370))
	n := len(w.progs)
	minRounds := 2*((minRuns+n-1)/n) - 1
	if w.tr != nil {
		minRounds = 2 // one untraced and one traced round
	}
	t := &timed{first: make([]any, n), ns: make([][]float64, n), secs: make([][]float64, n)}
	rss := sampleRSS(0)
	defer rss.stopMB()
	allocCounter := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	heapAllocs := func() uint64 {
		metrics.Read(allocCounter)
		return allocCounter[0].Value.Uint64()
	}
	start := time.Now()
	runID := 0
	for round := 0; ; round++ {
		traced := w.tr != nil && round%2 == 1
		var tr *tracer
		var prof *roundProfile
		if traced {
			tr = w.tr
			var err error
			if prof, err = startRoundProfile(); err != nil {
				return nil, err
			}
		}
		roundSpan := tr.begin("round", 0, 0)
		var roundInsts uint64
		var prevPass float64
		if !traced {
			prevPass = w.ys.pass()
			t.passes = append(t.passes, prevPass)
		}
		for _, i := range rng.Perm(n) {
			runID++
			runSpan := tr.begin("run", roundSpan, runID)
			a0 := heapAllocs()
			t0 := time.Now()
			res, insts, err := w.simulate(i, tr, runSpan, runID)
			dt := time.Since(t0)
			a1 := heapAllocs()
			tr.end(runSpan)
			t.runs++
			// A detailed run retires exactly its budget. A sampled run covers
			// the budget or, for the kernels whose ProgramFor(2M) build halts
			// a little short of it (bzip2, eon), the whole program; rounds
			// must agree either way.
			if err == nil && (insts == 0 || insts > w.sp.Insts || !w.sp.Sampled && insts != w.sp.Insts) {
				err = fmt.Errorf("%s: covered %d instructions, want %d", w.sp.Kernels[i], insts, w.sp.Insts)
			}
			if err == nil && t.first[i] != nil && !reflect.DeepEqual(res, t.first[i]) {
				err = fmt.Errorf("%s: round %d result differs from round 1", w.sp.Kernels[i], round+1)
			}
			if err != nil {
				t.failed++
				t.problems = append(t.problems, err.Error())
				continue
			}
			if t.first[i] == nil {
				t.first[i] = res
			}
			roundInsts += insts
			nsPerInst := float64(dt.Nanoseconds()) / float64(insts)
			if traced {
				t.tracedNs = append(t.tracedNs, nsPerInst)
			} else {
				next := w.ys.pass()
				t.passes = append(t.passes, next)
				sc := scale(prevPass, next)
				prevPass = next
				t.ns[i] = append(t.ns[i], nsPerInst*sc)
				t.secs[i] = append(t.secs[i], dt.Seconds()*sc)
				t.rawNs = append(t.rawNs, nsPerInst)
				t.allocs += a1 - a0
				t.allocRuns++
			}
		}
		tr.end(roundSpan)
		if traced {
			if err := prof.stop(t, roundInsts); err != nil {
				return nil, err
			}
		}
		if !w.sp.Sampled {
			// Differential check, untimed: the seed picks the kernel.
			k := rng.IntN(n)
			if _, err := w.checkedRun(k, t.first[k], nil); err != nil {
				t.problems = append(t.problems, err.Error())
			}
		}
		t.rounds = round + 1
		if t.rounds >= minRounds && time.Since(start).Seconds() >= seconds {
			t.rssMB = rss.stopMB()
			return t, nil
		}
	}
}

// measureInproc runs an in-process workload and fills rec with its
// end-to-end metrics, or with its layer ledger when traced.
func measureInproc(rec *record, sp spec, seconds float64, tr *tracer, probes int) error {
	ys := newYardstick()
	var setups []float64
	if tr == nil {
		var err error
		if setups, err = probeSetup(sp, probes, ys); err != nil {
			return err
		}
	}
	w := newInproc(sp, tr, ys)
	if err := w.setup(); err != nil {
		return err
	}
	t, err := w.run(rec.Seed, seconds)
	if err != nil {
		return err
	}
	rec.Rounds, rec.Attempted, rec.Failed, rec.Problems = t.rounds, t.runs, t.failed, t.problems
	if tr == nil {
		// Other tenants of a shared host only ever add time, so the faster
		// half of each kernel's (scaled) runs stands for the simulator's own
		// cost. The round's wall clock is assembled from each kernel's
		// median kept run: one interrupted run would otherwise stretch a
		// whole round.
		var kept []float64
		var wall float64
		for i := range t.ns {
			kept = append(kept, fasterHalf(t.ns[i])...)
			wall += median(fasterHalf(t.secs[i]))
		}
		lat, err := latencySummary(kept)
		if err != nil {
			return err
		}
		rec.Metrics = append([]metric{
			{Name: "wall_s", Value: wall, Unit: "s",
				Base: fmt.Sprintf("one round of %d simulations, each kernel's median kept run, nominal host", len(sp.Kernels))},
			{Name: "setup_s", Value: median(fasterHalf(setups)), Unit: "s",
				Base: fmt.Sprintf("median of the faster half of %d processes, nominal host", len(setups))},
		}, lat...)
		rec.Metrics = append(rec.Metrics,
			metric{Name: "mean_rss_mb", Value: t.rssMB, Unit: "MB", Base: fmt.Sprintf("sampled every %v", rssPeriod)},
			metric{Name: "alloc_kb_per_run", Value: ratio(float64(t.allocs)/1024, float64(t.allocRuns)), Unit: "KB",
				Base: fmt.Sprintf("%d runs", t.allocRuns)},
			metric{Name: "max_rss_mb", Value: maxRSSMB(), Unit: "MB", Base: "getrusage peak, not gated"},
			metric{Name: "raw_ns_per_inst_p50", Value: median(t.rawNs), Unit: "ns",
				Base: fmt.Sprintf("%d runs as measured, unscaled, not gated", len(t.rawNs))},
			hostSlowdown(t.passes))
		return nil
	}
	rec.Metrics = w.ledger(t)
	return nil
}

// profileHz is the traced rounds' CPU sampling rate: at pprof's default
// 100 Hz a 2 s round gives the smaller layers only a few samples.
const profileHz = 500

// roundProfile records one traced round's CPU profile together with the
// process CPU time and the runtime's GC accounting over the same interval.
type roundProfile struct {
	buf        bytes.Buffer
	cpu0       int64
	gc0, busy0 float64
}

func startRoundProfile() (*roundProfile, error) {
	rp := &roundProfile{cpu0: processCPUNs()}
	rp.gc0, rp.busy0 = cpuClasses()
	// pprof.StartCPUProfile's own 100 Hz request then fails with a warning
	// on stderr; the profile records the rate in effect.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&rp.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return rp, nil
}

// stop ends the profile and adds the round, which simulated insts
// instructions, to t.
func (rp *roundProfile) stop(t *timed, insts uint64) error {
	pprof.StopCPUProfile()
	cpuNs := processCPUNs() - rp.cpu0
	gc1, busy1 := cpuClasses()
	t.gcSec += gc1 - rp.gc0
	t.busySec += busy1 - rp.busy0
	p, err := parseProfile(rp.buf.Bytes())
	if err != nil {
		return err
	}
	split, err := splitCPU(p)
	if err != nil {
		return err
	}
	split.CPUNs, split.Insts = cpuNs, insts
	t.cpu.add(split)
	return nil
}

// cpuClasses returns the runtime's estimates of GC CPU time and of all
// non-idle CPU time since start, in seconds.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// processCPUNs returns this process's user plus system CPU time.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB returns this process's peak resident set (getrusage).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checkedRun reruns kernel i untimed with a RetireHook that checks every
// retired record against a fresh emulator's committed stream, as
// internal/conformance does, and checks that the rerun's Stats equal round
// 1's (want, when known). When keep is non-nil the retired records are also
// kept for the fill-unit replay.
func (w *inproc) checkedRun(i int, want any, keep *[]core.RetireInfo) (p *pipeline.Pipeline, err error) {
	name := w.sp.Kernels[i]
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: differential run aborted: %v", name, r)
		}
	}()
	ref := emu.New(w.progs[i])
	var rec emu.Committed
	var retired uint64
	var hookErr error
	cfg := w.cfg
	cfg.RetireHook = func(ri core.RetireInfo) {
		if hookErr != nil {
			return
		}
		if !ref.NextInto(&rec) {
			hookErr = fmt.Errorf("%s: pipeline retired more than the emulator committed", name)
			return
		}
		if ri.Rec != rec {
			hookErr = fmt.Errorf("%s: retire %d: pipeline record %+v != emulator %+v", name, retired, ri.Rec, rec)
			return
		}
		retired++
		if keep != nil {
			*keep = append(*keep, ri)
		}
	}
	p = pipeline.New(emu.New(w.progs[i]), cfg)
	s := p.Run()
	switch {
	case hookErr != nil:
		return nil, hookErr
	case retired != w.sp.Insts:
		return nil, fmt.Errorf("%s: differential run retired %d of %d instructions", name, retired, w.sp.Insts)
	case want != nil && !reflect.DeepEqual(s, want):
		return nil, fmt.Errorf("%s: hooked run's Stats differ from the timed run's", name)
	}
	return p, nil
}

// replayFill feeds retired records into a fresh fill unit and trace cache
// built from cfg, the way the pipeline's retire stage does, and checks that
// its FillStats and memo counters equal the pipeline's.
func replayFill(name string, cfg pipeline.Config, recs []core.RetireInfo, p *pipeline.Pipeline) error {
	fu := core.NewFillUnit(core.Config{
		Strategy:      cfg.Strategy,
		DisableChains: cfg.DisableChains,
		Geom:          cfg.Geom,
		Trace:         cfg.Trace,
	}, trace.NewCache(cfg.Trace))
	for i := range recs {
		fu.Retire(&recs[i])
	}
	fu.Flush()
	if fu.S != p.S.Fill {
		return fmt.Errorf("%s: fill-unit replay FillStats %+v != pipeline %+v", name, fu.S, p.S.Fill)
	}
	h1, m1 := fu.MemoStats()
	h2, m2 := p.FillUnit().MemoStats()
	if h1 != h2 || m1 != m2 {
		return fmt.Errorf("%s: fill-unit replay memo %d/%d != pipeline %d/%d (hits/misses)", name, h1, m1, h2, m2)
	}
	return nil
}

// emuPass times the functional emulator alone over insts instructions. A
// clock read per step would cost more than the step, so the pass is one span.
func emuPass(prog *isa.Program, insts uint64, tr *tracer, parent, run int) {
	id := tr.begin("emu.pass", parent, run)
	m := emu.New(prog)
	var c emu.Committed
	for n := uint64(0); n < insts && m.NextInto(&c); n++ {
	}
	tr.end(id)
}

// kernelProbes is the traced run's untimed ledger pass over every kernel:
// a hooked rerun whose records are replayed into a fresh fill unit, and a
// standalone emulator pass. It returns the summed memo hits and misses.
func (w *inproc) kernelProbes(first []any) (hits, misses uint64, problems []string) {
	var recs []core.RetireInfo
	for i, name := range w.sp.Kernels {
		run := -(i + 1) // probe runs get negative ids, apart from timed runs
		probe := w.tr.begin("probe", 0, run)
		recs = recs[:0]
		id := w.tr.begin("pipeline.Run+hook", probe, run)
		p, err := w.checkedRun(i, first[i], &recs)
		w.tr.end(id)
		if err == nil {
			id = w.tr.begin("core.replay", probe, run)
			err = replayFill(name, w.cfg, recs, p)
			w.tr.end(id)
		}
		if err != nil {
			problems = append(problems, err.Error())
		} else {
			h, m := p.FillUnit().MemoStats()
			hits, misses = hits+h, misses+m
		}
		emuPass(w.progs[i], w.sp.Insts, w.tr, probe, run)
		w.tr.end(probe)
	}
	return hits, misses, problems
}

// probeEnv carries a spec to a set-up probe: a fresh copy of this binary
// that runs only the set-up and prints "ready".
const probeEnv = "CTCPPERF_SETUP_PROBE"

// runProbe is the probe process's whole job.
func runProbe(js string) int {
	var sp spec
	if err := json.Unmarshal([]byte(js), &sp); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpperf probe: %v\n", err)
		return 2
	}
	if err := newInproc(sp, nil, nil).setup(); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpperf probe: %v\n", err)
		return 1
	}
	fmt.Println("ready")
	return 0
}

// probeSetup times the set-up of sp in n fresh processes, each from exec to
// its "ready" line, so runtime start-up and package initialisation count too.
// Each time is scaled by yardstick passes just before and after the probe.
func probeSetup(sp spec, n int, ys *yardstick) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		before := ys.pass()
		dt, err := timeToReady(exe, probeEnv+"="+string(js))
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, dt*scale(before, ys.pass()))
	}
	return out, nil
}

// timeToReady starts this binary with env added and returns the seconds
// until it prints "ready"; it then waits for the process to exit.
func timeToReady(exe, env string) (float64, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), env)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var dt float64
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if sc.Text() == "ready" && dt == 0 {
			dt = time.Since(t0).Seconds()
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if dt == 0 {
		return 0, fmt.Errorf("probe exited without printing ready")
	}
	return dt, nil
}
