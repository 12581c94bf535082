// Command ctcpperf is the repository's end-to-end benchmark. It measures
// host time per simulated instruction on all 26 kernels, the wall clock of
// regenerating every paper artifact, and sampled simulation, and it checks
// that every simulated result is correct while it measures.
//
// Usage (from the repository root; cmd/ctcpperf/run.sh builds and runs it):
//
//	ctcpperf -workload kernels-fdrt -seed 1 -seconds 14 [-trace 0|1|spans.jsonl] [-json runs.jsonl]
//	ctcpperf -compare a.jsonl b.jsonl
//
// An untraced run prints every end-to-end metric; a traced run prints the
// per-layer ledger, writes its spans, and reports the tracing overhead. The
// last line of stdout is a JSON object with the fields correct, attempted,
// failed and metrics. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ctcp/internal/core"
	"ctcp/internal/workload"
)

// setupProbes is how many fresh processes time the set-up; setup_s is the
// median of their faster half. A process start now and then waits several
// milliseconds for a CPU, which a plain median of a few would catch.
const setupProbes = 15

// workloadNames lists the workloads in the order -workload documents them.
var workloadNames = []string{"kernels-fdrt", "kernels-issue", "artifacts", "sampled"}

// specFor returns the in-process spec of a workload (ok false for artifacts
// and unknown names).
func specFor(name string) (spec, bool) {
	var kernels []string
	for _, bm := range workload.All() {
		kernels = append(kernels, bm.Name)
	}
	switch name {
	case "kernels-fdrt":
		return spec{Kernels: kernels, Insts: 200_000, Strategy: core.FDRT}, true
	case "kernels-issue":
		return spec{Kernels: kernels, Insts: 200_000, Strategy: core.IssueTime}, true
	case "sampled":
		return spec{Kernels: kernels, Insts: 2_000_000, Strategy: core.FDRT, Sampled: true}, true
	}
	return spec{}, false
}

// record is one run's full result; -json appends it as one line.
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Machine   machine  `json:"machine"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Rounds    int      `json:"rounds,omitempty"`
	Metrics   []metric `json:"metrics"` // end-to-end when untraced, the layer ledger when traced
	Problems  []string `json:"problems,omitempty"`
}

// machine names the host every number was measured on.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Seed       uint64 `json:"seed"`
	GitRev     string `json:"git_rev,omitempty"`
}

func thisMachine(seed uint64) machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		Seed:       seed,
		GitRev:     gitRev(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git in the working directory,
// without running git; it returns "" outside a git checkout.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if rev, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs")) // absent: no packed refs
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return ""
}

func main() {
	if js := os.Getenv(probeEnv); js != "" {
		os.Exit(runProbe(js))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ctcpperf", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "permutes the kernel visit order and picks the differential-check kernel; never changes a simulated result")
	seconds := fs.Float64("seconds", 14, "measure whole rounds until at least this long has passed (artifacts always runs its fixed regenerations)")
	traceArg := fs.String("trace", "0", "0: untraced; 1: traced, spans to "+buildDir+"/spans-<workload>.jsonl; anything else: traced, spans to that file")
	jsonOut := fs.String("json", "", "append this run's record as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -json files: ctcpperf -compare a.jsonl b.jsonl (bounds from BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare("BENCHMARK.json", fs.Args())
	}
	spansPath := ""
	switch *traceArg {
	case "0":
	case "1":
		spansPath = filepath.Join(buildDir, "spans-"+*wl+".jsonl")
	default:
		spansPath = *traceArg
	}
	var tr *tracer
	if spansPath != "" {
		tr = newTracer()
	}

	rec := &record{Workload: *wl, Seed: *seed, Traced: tr != nil, Machine: thisMachine(*seed)}
	var err error
	if sp, ok := specFor(*wl); ok {
		err = measureInproc(rec, sp, *seconds, tr, setupProbes)
	} else if *wl == "artifacts" {
		err = measureArtifacts(rec, tr)
	} else {
		fmt.Fprintf(os.Stderr, "ctcpperf: unknown -workload %q (one of: %s)\n", *wl, strings.Join(workloadNames, ", "))
		return 2
	}
	if err != nil {
		for _, p := range rec.Problems {
			fmt.Fprintf(os.Stderr, "ctcpperf: check failed: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "ctcpperf: %s: %v\n", *wl, err)
		return 1
	}
	if tr != nil {
		if err := writeSpans(spansPath, tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "ctcpperf: writing spans: %v\n", err)
			return 1
		}
	}
	rec.Correct = len(rec.Problems) == 0
	if err := report(rec, tr, spansPath, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpperf: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// report prints the record for people (with, when traced, each span name's
// call count, total and self time), then the one-line result the benchmark
// contract reads last, and appends the record to jsonOut.
func report(rec *record, tr *tracer, spansPath, jsonOut string) error {
	mj, err := json.Marshal(rec.Machine)
	if err != nil {
		return err
	}
	fmt.Printf("ctcpperf: workload %s, seed %d, traced %v, %d rounds, %d runs attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Rounds, rec.Attempted, rec.Failed)
	fmt.Printf("machine: %s\n", mj)
	for _, p := range rec.Problems {
		fmt.Printf("check FAILED: %s\n", p)
	}
	for _, m := range rec.Metrics {
		base := ""
		if m.Base != "" {
			base = " (" + m.Base + ")"
		}
		fmt.Printf("%-30s %14.6g %-5s%s\n", m.Name, m.Value, m.Unit, base)
	}
	if tr != nil {
		totals := totalsByName(tr.spans)
		names := make([]string, 0, len(totals))
		for name := range totals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := totals[name]
			fmt.Printf("span %-20s %7d calls %12.3f ms total %12.3f ms self\n", name, t.Count, float64(t.Ns)/1e6, float64(t.Self)/1e6)
		}
		fmt.Printf("spans: %s\n", spansPath)
	}
	if jsonOut != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(jsonOut, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	want := endToEnd
	if rec.Traced {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, w := range want {
		for _, m := range rec.Metrics {
			if m.Name == w.Name {
				result.Metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
		if _, ok := result.Metrics[w.Name]; !ok {
			return fmt.Errorf("run produced no %s metric", w.Name)
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
