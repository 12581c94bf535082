// Command ctcpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ctcpbench                      # everything, default budget
//	ctcpbench -exp fig6,table8     # selected artifacts
//	ctcpbench -insts 500000        # bigger per-run budget
//	ctcpbench -v                   # per-simulation progress on stderr
//	ctcpbench -cpuprofile cpu.out  # pprof capture of any of the above
//	ctcpbench -sample 50000 -sample-detail 25000 -sample-warmup 12500
//	                               # region-parallel sampled simulation
//	ctcpbench -resume results/ -checkpoint-every 50000
//	                               # resumable runs: rerun continues a killed sweep;
//	                               # the directory is a result store ctcpd can serve
//
// A simulation that aborts (pathological configuration) no longer crashes
// the process: the failing key is recorded, every artifact that did
// complete is still printed, a failure summary goes to stderr, and the
// process exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"ctcp/internal/experiment"
	"ctcp/internal/workload"
)

// artifacts is the generation-order table of every paper artifact the tool
// can regenerate. The -exp flag usage and name validation are derived from
// it, so adding an entry here is the single step needed to expose it.
var artifacts = []struct {
	name string
	run  func(r *experiment.Runner) string
}{
	{"table1", func(r *experiment.Runner) string { return experiment.Table1(r).Render() }},
	{"fig4", func(r *experiment.Runner) string { return experiment.Figure4(r).Render() }},
	{"table2", func(r *experiment.Runner) string { return experiment.Table2(r).Render() }},
	{"fig5", func(r *experiment.Runner) string { return experiment.Figure5(r).Render() }},
	{"table3", func(r *experiment.Runner) string { return experiment.Table3(r).Render() }},
	{"fig6", func(r *experiment.Runner) string { return experiment.Figure6(r).Render() }},
	{"table8", func(r *experiment.Runner) string { return experiment.Table8(r).Render() }},
	{"fig7", func(r *experiment.Runner) string { return experiment.Figure7(r).Render() }},
	{"table9", func(r *experiment.Runner) string { return experiment.Table9(r).Render() }},
	{"table10", func(r *experiment.Runner) string { return experiment.Table10(r).Render() }},
	{"fig8", func(r *experiment.Runner) string { return experiment.Figure8(r).Render() }},
	{"ablation", func(r *experiment.Runner) string { return experiment.Ablation(r).Render() }},
	{"sweeps", func(r *experiment.Runner) string {
		return experiment.SweepTraceCache(r).Render() + "\n" +
			experiment.SweepROB(r).Render() + "\n" +
			experiment.SweepHopLatency(r).Render()
	}},
	{"fig9", func(r *experiment.Runner) string { return experiment.Figure9(r).Render() }},
}

// artifactNames renders the artifact list for flag usage and error messages.
func artifactNames() string {
	names := make([]string, 0, len(artifacts))
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	return strings.Join(names, ",")
}

// cliOptions collects every parsed flag; run takes the struct instead of a
// positional-argument list that grew unreadable.
type cliOptions struct {
	exps    string
	insts   uint64
	par     int
	verbose bool
	inject  bool
	cpuProf string
	memProf string

	sampleInterval uint64
	sampleDetail   uint64
	sampleWarmup   uint64
	sampleWorkers  int
	resumeDir      string
	ckptEvery      uint64
}

// validate enforces the flag contract shared with experiment.Options:
// checkpoint spacing is meaningless without a resume directory, and the
// sampled and checkpointed modes are mutually exclusive.
func (o *cliOptions) validate() error {
	if o.ckptEvery != 0 && o.resumeDir == "" {
		return fmt.Errorf("-checkpoint-every requires -resume <dir>")
	}
	if o.sampleInterval != 0 && o.resumeDir != "" {
		return fmt.Errorf("-sample and -resume are mutually exclusive")
	}
	return nil
}

// main only parses flags and owns the process exit code; the body lives in
// run so profile-teardown defers execute before os.Exit.
func main() {
	var o cliOptions
	flag.StringVar(&o.exps, "exp", "all", "comma-separated list: "+artifactNames()+" or 'all'")
	flag.Uint64Var(&o.insts, "insts", experiment.DefaultBudget, "committed instruction budget per run")
	flag.IntVar(&o.par, "par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	flag.BoolVar(&o.verbose, "v", false, "log each simulation start/finish/failure to stderr")
	flag.BoolVar(&o.inject, "inject-fault", false, "fault-injection self-test: run one deliberately pathological configuration and verify the sweep degrades gracefully (exits non-zero)")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProf, "memprofile", "", "write a heap profile taken at exit to this file")
	flag.Uint64Var(&o.sampleInterval, "sample", 0, "region-parallel sampled simulation: checkpoint the functional emulator every N instructions and simulate the regions in detail concurrently (0 = full detail)")
	flag.Uint64Var(&o.sampleDetail, "sample-detail", 0, "instructions simulated in detail per region (0 = the whole region)")
	flag.Uint64Var(&o.sampleWarmup, "sample-warmup", 0, "warmup instructions per region excluded from the measurement (region 0 is always measured whole)")
	flag.IntVar(&o.sampleWorkers, "sample-workers", 0, "detailed-simulation workers for -sample (0 = GOMAXPROCS)")
	flag.StringVar(&o.resumeDir, "resume", "", "result-store directory: runs keep <fingerprint>.ckpt checkpoints and <fingerprint>.json results here, a rerun continues where a killed sweep stopped, and ctcpd -store can serve it")
	flag.Uint64Var(&o.ckptEvery, "checkpoint-every", 0, "instructions between on-disk checkpoints (requires -resume; 0 = budget/4)")
	flag.Parse()
	os.Exit(run(&o))
}

func run(o *cliOptions) int {
	exps, insts, par, verbose := o.exps, o.insts, o.par, o.verbose
	inject, cpuProf, memProf := o.inject, o.cpuProf, o.memProf
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpbench: %v\n", err)
		return 1
	}
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctcpbench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ctcpbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memProf != "" {
		defer func() {
			f, err := os.Create(memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ctcpbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ctcpbench: memprofile: %v\n", err)
			}
		}()
	}

	opts := experiment.Options{
		Budget:          insts,
		Parallelism:     par,
		SampleInterval:  o.sampleInterval,
		SampleDetail:    o.sampleDetail,
		SampleWarmup:    o.sampleWarmup,
		SampleWorkers:   o.sampleWorkers,
		CheckpointDir:   o.resumeDir,
		CheckpointEvery: o.ckptEvery,
	}
	if verbose {
		var mu sync.Mutex
		opts.Progress = func(ev experiment.ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case experiment.RunStarted:
				fmt.Fprintf(os.Stderr, "%-5s %s\n", ev.Kind, ev.Key)
			case experiment.RunCompleted:
				fmt.Fprintf(os.Stderr, "%-5s %s (%v)\n", ev.Kind, ev.Key, ev.Wall.Round(time.Millisecond))
			case experiment.RunFailed:
				fmt.Fprintf(os.Stderr, "%-5s %s: %v\n", ev.Kind, ev.Key, ev.Err)
			}
		}
	}
	r := experiment.NewRunner(opts)
	if inject {
		// Config.Validate rejects a geometry with no clusters, so the run
		// aborts with a SimError that must be recorded, not fatal.
		bad := experiment.BaseConfig()
		bad.Geom.Clusters = 0
		if bm, ok := workload.ByName("gzip"); ok {
			r.RunErr(bm, "inject-fault", bad)
		}
	}
	known := map[string]bool{}
	for _, e := range artifacts {
		known[e.name] = true
	}
	want := map[string]bool{}
	if exps == "all" {
		want = known
	} else {
		for _, name := range strings.Split(exps, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				fmt.Fprintf(os.Stderr, "ctcpbench: unknown experiment %q (one of: %s, or 'all')\n", name, artifactNames())
				return 1
			}
			want[name] = true
		}
	}

	fmt.Printf("ctcpbench: budget %d instructions per run\n\n", insts)
	ran := 0
	var failedArtifacts []string
	for _, e := range artifacts {
		if !want[e.name] {
			continue
		}
		start := time.Now()
		out, err := renderArtifact(func() string { return e.run(r) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctcpbench: %s failed: %v\n\n", e.name, err)
			failedArtifacts = append(failedArtifacts, e.name)
			ran++
			continue
		}
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "ctcpbench: no matching experiments (see -exp)")
		return 1
	}

	st := r.Stats()
	fmt.Printf("runner: %s\n", st)
	exit := 0
	if sum := r.FailureSummary(); sum != "" {
		fmt.Fprint(os.Stderr, "ctcpbench: "+sum)
		exit = 1
	}
	if len(failedArtifacts) > 0 {
		fmt.Fprintf(os.Stderr, "ctcpbench: %d artifact(s) failed to render: %s\n",
			len(failedArtifacts), strings.Join(failedArtifacts, ", "))
		exit = 1
	}
	return exit
}

// renderArtifact runs one artifact builder, converting a panic anywhere in
// the build/render path into an error so the remaining artifacts still run.
func renderArtifact(run func() string) (out string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return run(), nil
}
