// Command ctcpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ctcpbench                      # every paper artifact, default budget
//	ctcpbench -exp fig6,table8     # selected artifacts
//	ctcpbench -exp all,sweeps      # the paper plus the opt-in design sweeps
//	ctcpbench -insts 500000        # bigger per-run budget
//	ctcpbench -v                   # per-simulation progress on stderr
//	ctcpbench -cpuprofile cpu.out  # pprof capture of any of the above
//	ctcpbench -sample 50000 -sample-detail 25000 -sample-warmup 12500
//	                               # region-parallel sampled simulation
//	ctcpbench -resume results/ -checkpoint-every 50000
//	                               # resumable runs: rerun continues a killed sweep;
//	                               # the directory is a result store ctcpd can serve
//
// The artifacts, their names and their order are experiment.Artifacts: -exp
// names entries of that registry, and 'all' is every entry that is not
// OptIn.
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

// selectArtifacts parses -exp: a comma-separated list of experiment.Artifacts
// names, in which 'all' stands for every paper artifact (every entry not
// OptIn).
func selectArtifacts(exps string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(exps, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range experiment.Artifacts {
			if name == a.Name || name == "all" && !a.OptIn {
				want[a.Name] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q (one of: %s, or 'all')", name, experiment.ArtifactNames())
		}
	}
	return want, nil
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
	flag.StringVar(&o.exps, "exp", "all", "comma-separated list: "+experiment.ArtifactNames()+" or 'all' (every paper artifact; sweeps are opt-in)")
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
	want, err := selectArtifacts(exps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpbench: %v\n", err)
		return 1
	}

	fmt.Printf("ctcpbench: budget %d instructions per run\n\n", insts)
	var failedArtifacts []string
	for _, a := range experiment.Artifacts {
		if !want[a.Name] {
			continue
		}
		start := time.Now()
		out, err := renderArtifact(a, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctcpbench: %s failed: %v\n\n", a.Name, err)
			failedArtifacts = append(failedArtifacts, a.Name)
			continue
		}
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %v]\n\n", a.Name, time.Since(start).Round(time.Millisecond))
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

// renderArtifact builds and renders one artifact on r, converting a panic
// anywhere in the build/render path into an error so the remaining
// artifacts still run.
func renderArtifact(a experiment.Artifact, r *experiment.Runner) (out string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return a.Render(r), nil
}
