package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds what run.sh builds and what a run writes (profiles, spans),
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// Artifact regeneration exactly as `make results` runs it, but at the
// benchmark's fixed parallelism and with per-simulation progress on stderr.
const (
	artifactInsts = 200_000
	artifactPar   = 2
	goldenPath    = "results_full.txt"
	// artifactSetupProbes is how many ctcpbench processes time its set-up.
	// Each takes under 10 ms, so many cost little. With 15, the ones that
	// stall for several ms at process start left setup_s with a run-to-run
	// spread of ~25%.
	artifactSetupProbes = 101
)

var (
	progressLine  = regexp.MustCompile(`^(start|done|fail)\s+(\S+)`)
	runnerLine    = regexp.MustCompile(`^runner: \d+ simulated \(\d+ failed\), (\d+) cache hits`)
	regenLine     = regexp.MustCompile(`^\[\S+ regenerated in [^\]]+\]$`)
	ctcpbenchPath = filepath.Join(buildDir, "ctcpbench")
)

// artifactRun is what one full regeneration produced.
type artifactRun struct {
	wall      time.Duration
	wallScale float64   // yardstick scale over the whole regeneration
	simMs     []float64 // per-simulation wall, ms, start line to done line
	simScale  []float64 // yardstick scale over each simulation
	passes    []float64 // yardstick pass times, ns
	started   int
	failed    int
	hits      int // runner cache hits
	maxRSSMB  float64
	meanRSSMB float64
	allocB    int64 // heap bytes allocated, from the child's heap profile
	stdout    []byte
	cpu       cpuSplit // traced runs only
	stderrTop []string // unparsed stderr lines, for diagnostics
}

// measureArtifacts regenerates every artifact with the built ctcpbench and
// fills rec; the output must match results_full.txt.
func measureArtifacts(rec *record, tr *tracer) error {
	ys := newYardstick()
	var setups []float64
	if tr == nil {
		for i := 0; i < artifactSetupProbes; i++ {
			before := ys.pass()
			dt, err := artifactSetup()
			if err != nil {
				return err
			}
			setups = append(setups, dt*scale(before, ys.pass()))
		}
	}
	ar, err := runArtifacts(tr, ys)
	if err != nil {
		return err
	}
	rec.Rounds, rec.Attempted, rec.Failed = 1, ar.started, ar.failed
	if err := checkGolden(ar.stdout); err != nil {
		rec.Problems = append(rec.Problems, err.Error())
	}
	if len(ar.simMs) != ar.started-ar.failed {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d simulations started but %d finished", ar.started, len(ar.simMs)))
	}
	insts := uint64(len(ar.simMs)) * artifactInsts
	if tr != nil {
		rec.Metrics = artifactLedger(ar, insts)
		return nil
	}
	ns := make([]float64, len(ar.simMs))
	for i, ms := range ar.simMs {
		ns[i] = ms * ar.simScale[i] * 1e6 / artifactInsts
	}
	lat, err := latencySummary(ns)
	if err != nil {
		return err
	}
	rec.Metrics = append([]metric{
		{Name: "wall_s", Value: ar.wall.Seconds() * ar.wallScale, Unit: "s",
			Base: fmt.Sprintf("one regeneration, %d simulations, nominal host", ar.started)},
		{Name: "setup_s", Value: median(fasterHalf(setups)), Unit: "s",
			Base: fmt.Sprintf("median of the faster half of %d processes, exec to first start line, nominal host", len(setups))},
	}, lat...)
	rec.Metrics = append(rec.Metrics,
		metric{Name: "mean_rss_mb", Value: ar.meanRSSMB, Unit: "MB", Base: fmt.Sprintf("ctcpbench process, sampled every %v", rssPeriod)},
		metric{Name: "alloc_kb_per_run", Value: ratio(float64(ar.allocB)/1024, float64(len(ar.simMs))), Unit: "KB",
			Base: fmt.Sprintf("%d simulations, heap profile alloc_space", len(ar.simMs))},
		metric{Name: "max_rss_mb", Value: ar.maxRSSMB, Unit: "MB", Base: "ctcpbench getrusage peak, not gated"},
		metric{Name: "raw_ns_per_inst_p50", Value: median(append([]float64(nil), ar.simMs...)) * 1e6 / artifactInsts, Unit: "ns",
			Base: fmt.Sprintf("%d simulations as measured, unscaled, not gated", len(ar.simMs))},
		hostSlowdown(ar.passes))
	return nil
}

// yardstickPeriod is how often the artifacts workload passes the yardstick
// while ctcpbench runs, about once per simulation. A pass takes ~3 ms of one
// of the two CPUs the child's workers use.
const yardstickPeriod = 100 * time.Millisecond

// runArtifacts runs the built ctcpbench over every artifact while sampling
// the yardstick alongside it. With traced set it also captures a CPU profile
// of the child and records one span per simulation from the start/done
// lines.
func runArtifacts(tr *tracer, ys *yardstick) (*artifactRun, error) {
	memProf := filepath.Join(buildDir, "artifacts.memprof")
	cpuProf := filepath.Join(buildDir, "artifacts.cpuprof")
	args := []string{"-insts", strconv.Itoa(artifactInsts), "-par", strconv.Itoa(artifactPar), "-v", "-memprofile", memProf}
	if tr != nil {
		args = append(args, "-cpuprofile", cpuProf)
	}
	cmd := exec.Command(ctcpbenchPath, args...)
	// Sample the heap profile once per ~4 KiB allocated instead of once per
	// 512 KiB: alloc_space then repeats within ~0.2% between runs instead
	// of wandering by ~10%.
	cmd.Env = append(os.Environ(), "GODEBUG=memprofilerate=4096")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", ctcpbenchPath, err)
	}
	rss := sampleRSS(cmd.Process.Pid)
	defer rss.stopMB()
	yard := sampleYardstick(ys, yardstickPeriod)
	defer yard.halt()
	ar := &artifactRun{}
	root := tr.begin("artifacts.regenerate", 0, 0)
	begun := map[string]time.Time{}
	var simFrom, simTo []time.Time
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		now := time.Now()
		line := sc.Text()
		m := progressLine.FindStringSubmatch(line)
		if m == nil {
			if len(ar.stderrTop) < 20 {
				ar.stderrTop = append(ar.stderrTop, line)
			}
			continue
		}
		switch m[1] {
		case "start":
			ar.started++
			begun[m[2]] = now
		case "fail":
			ar.failed++
		case "done":
			// Timed by this process from the start line to the done line:
			// the child prints its own durations rounded to the millisecond.
			ar.simMs = append(ar.simMs, float64(now.Sub(begun[m[2]]).Nanoseconds())/1e6)
			simFrom, simTo = append(simFrom, begun[m[2]]), append(simTo, now)
			tr.add("experiment.sim", root, len(ar.simMs), begun[m[2]], now)
		}
	}
	ar.meanRSSMB = rss.stopMB()
	waitErr := cmd.Wait()
	t1 := time.Now()
	ar.wall = t1.Sub(t0)
	tr.end(root)
	yard.halt()
	ar.passes, ar.wallScale = yard.ns, yard.scaleOver(t0, t1)
	for i := range simFrom {
		ar.simScale = append(ar.simScale, yard.scaleOver(simFrom[i], simTo[i]))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading ctcpbench progress: %w", err)
	}
	if waitErr != nil {
		return nil, fmt.Errorf("ctcpbench: %v\n%s", waitErr, strings.Join(ar.stderrTop, "\n"))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		ar.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	ar.stdout = stdout.Bytes()
	for _, line := range strings.Split(string(ar.stdout), "\n") {
		if m := runnerLine.FindStringSubmatch(line); m != nil {
			ar.hits, _ = strconv.Atoi(m[1]) // the pattern admits digits only
		}
	}
	heap, err := readProfile(memProf)
	if err != nil {
		return nil, err
	}
	if ar.allocB, err = heap.total("alloc_space"); err != nil {
		return nil, err
	}
	if tr != nil {
		p, err := readProfile(cpuProf)
		if err != nil {
			return nil, err
		}
		if ar.cpu, err = splitCPU(p); err != nil {
			return nil, err
		}
		ar.cpu.CPUNs = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Nanoseconds()
	}
	return ar, nil
}

func readProfile(path string) (*profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseProfile(data)
}

// artifactSetup times one ctcpbench process from exec to its first start
// line: the set-up a user waits through before any simulation runs. The
// process is killed once the line arrives.
func artifactSetup() (float64, error) {
	cmd := exec.Command(ctcpbenchPath, "-insts", strconv.Itoa(artifactInsts), "-par", strconv.Itoa(artifactPar), "-v")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("starting %s: %w", ctcpbenchPath, err)
	}
	sc := bufio.NewScanner(stderr)
	var dt float64
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "start ") {
			dt = time.Since(t0).Seconds()
			break
		}
	}
	_ = cmd.Process.Kill() // the probe has what it came for; Wait reaps it
	_ = cmd.Wait()         // exit status is the kill's
	if dt == 0 {
		return 0, fmt.Errorf("ctcpbench printed no start line")
	}
	return dt, nil
}

// checkGolden compares regenerated artifacts with the checked-in sweep,
// ignoring the wall-clock "[... regenerated in ...]" lines. On a mismatch
// the error carries a unified diff.
func checkGolden(got []byte) error {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("reading the oracle: %w", err)
	}
	a, b := stripRegen(string(want)), stripRegen(string(got))
	if strings.Join(a, "\n") == strings.Join(b, "\n") {
		return nil
	}
	return fmt.Errorf("artifacts differ from %s:\n%s", goldenPath, unifiedDiff(goldenPath, "ctcpbench stdout", a, b))
}

func stripRegen(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if !regenLine.MatchString(line) {
			out = append(out, line)
		}
	}
	return out
}

// unifiedDiff renders the differing middle of a and b (after their common
// prefix and suffix) as one unified-diff hunk with three lines of context.
func unifiedDiff(aName, bName string, a, b []string) string {
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	const ctx = 3
	lo := max(pre-ctx, 0)
	aHi, bHi := min(len(a)-suf+ctx, len(a)), min(len(b)-suf+ctx, len(b))
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s\n+++ %s\n@@ -%d,%d +%d,%d @@\n", aName, bName, lo+1, aHi-lo, lo+1, bHi-lo)
	for _, l := range a[lo:pre] {
		sb.WriteString(" " + l + "\n")
	}
	for _, l := range a[pre : len(a)-suf] {
		sb.WriteString("-" + l + "\n")
	}
	for _, l := range b[pre : len(b)-suf] {
		sb.WriteString("+" + l + "\n")
	}
	for _, l := range a[len(a)-suf : aHi] {
		sb.WriteString(" " + l + "\n")
	}
	return sb.String()
}

// artifactLedger is the traced run's ledger: the experiment layer's rows
// and the child's CPU split.
func artifactLedger(ar *artifactRun, insts uint64) []metric {
	sims := append([]float64(nil), ar.simMs...)
	sort.Float64s(sims)
	p90, _ := percentile(sims, 90)
	var busy float64
	for _, ms := range sims {
		busy += ms
	}
	requests := ar.started + ar.hits
	base := fmt.Sprintf("%d simulations", len(sims))
	out := []metric{
		{Name: "experiment.sim_ms_p50", Value: median(sims), Unit: "ms", Base: base},
		{Name: "experiment.sim_ms_p90", Value: p90, Unit: "ms", Base: base},
		{Name: "experiment.worker_util", Value: ratio(busy/1e3, ar.wall.Seconds()*artifactPar), Unit: "ratio",
			Base: fmt.Sprintf("%d workers x %.3f s", artifactPar, ar.wall.Seconds())},
		{Name: "experiment.cache_hit_ratio", Value: ratio(float64(ar.hits), float64(requests)), Unit: "ratio",
			Base: fmt.Sprintf("%d requests", requests)},
	}
	ar.cpu.Insts = insts
	return append(out, cpuMetrics(ar.cpu, ratio(float64(ar.cpu.GCNs), float64(ar.cpu.TotalNs)),
		fmt.Sprintf("share of %d profile samples with a GC frame", ar.cpu.Samples))...)
}
