// Command ctcpsim runs one benchmark through the clustered trace cache
// processor model and prints a statistics summary, or saves a run at a
// checkpoint under a name and resumes it later, bit-exactly. Named saves are
// checkpointed runs in a result store directory, the same layout ctcpbench
// -resume and ctcpd -store use.
//
// Usage:
//
//	ctcpsim -list
//	ctcpsim -bench gzip -strategy fdrt -insts 500000
//	ctcpsim -bench twolf -strategy issue-time -steer 4 -topology ring -hop 1
//	ctcpsim -save warm -bench gzip -config fdrt -insts 500000 -save-at 250000
//	ctcpsim -saves
//	ctcpsim -resume warm
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/experiment"
	"ctcp/internal/pipeline"
	"ctcp/internal/workload"
)

// strategyNames renders the canonical strategy list for flag usage and error
// messages, so the tool cannot drift from core.Strategies.
func strategyNames() string {
	names := make([]string, 0, len(core.Strategies()))
	for _, k := range core.Strategies() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ctcpsim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		bench    = flag.String("bench", "gzip", "benchmark name")
		strategy = flag.String("strategy", "base", "assignment strategy: "+strategyNames())
		steer    = flag.Int("steer", 4, "issue-time steering latency in cycles (issue-time only)")
		insts    = flag.Uint64("insts", 300_000, "committed instruction budget")
		topology = flag.String("topology", "chain", "inter-cluster interconnect: chain or ring")
		hop      = flag.Int("hop", 2, "inter-cluster forwarding latency per hop")
		clusters = flag.Int("clusters", 4, "number of clusters")
		ptrace   = flag.Int("pipetrace", 0, "print a per-cycle occupancy trace of the first N active cycles")

		storeDir = flag.String("store", "saves", "result-store directory holding named saves (same layout as ctcpbench -resume and ctcpd -store)")
		save     = flag.String("save", "", "run -bench under -config, stop at the -save-at checkpoint, and save it under this name")
		saveAt   = flag.Uint64("save-at", 0, "committed-instruction checkpoint to save at (default budget/2)")
		config   = flag.String("config", "base", "named experiment config for -save (see internal/experiment StrategyConfigs)")
		resume   = flag.String("resume", "", "finish the named save and print its stats")
		saves    = flag.Bool("saves", false, "list the named saves in -store and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("SPEC CPU2000 integer analogs:")
		for _, bm := range workload.SPECint() {
			sel := " "
			if bm.Selected {
				sel = "*"
			}
			fmt.Printf("  %s %-10s %s\n", sel, bm.Name, bm.Description)
		}
		fmt.Println("MediaBench analogs:")
		for _, bm := range workload.MediaBench() {
			fmt.Printf("    %-10s %s\n", bm.Name, bm.Description)
		}
		fmt.Println("(* = the six forwarding-sensitive benchmarks the paper selects)")
		return
	}

	switch {
	case *save != "":
		runSave(openStore(*storeDir), *save, *bench, *config, *insts, *saveAt)
		return
	case *resume != "":
		runResume(openStore(*storeDir), *resume)
		return
	case *saves:
		runSaves(openStore(*storeDir), *storeDir)
		return
	}

	bm, ok := workload.ByName(*bench)
	if !ok {
		fatalf("unknown benchmark %q (try -list)", *bench)
	}

	kinds := map[string]core.StrategyKind{}
	for _, k := range core.Strategies() {
		kinds[k.String()] = k
	}
	kind, ok := kinds[*strategy]
	if !ok {
		fatalf("unknown strategy %q (one of: %s)", *strategy, strategyNames())
	}

	cfg := pipeline.DefaultConfig().WithStrategy(kind, *steer == 0)
	if kind.SteersAtIssue() {
		cfg.SteerStages = *steer
	}
	switch *topology {
	case "chain":
		cfg.Geom.Topology = cluster.Chain
	case "ring":
		cfg.Geom.Topology = cluster.Ring
	default:
		fatalf("unknown topology %q", *topology)
	}
	cfg.Geom.HopLat = *hop
	cfg.Geom.Clusters = *clusters
	cfg.MaxInsts = *insts

	fmt.Printf("benchmark  %s (%s)\n", bm.Name, bm.Description)
	fmt.Printf("strategy   %v  topology=%v hop=%d clusters=%d budget=%d\n",
		kind, cfg.Geom.Topology, cfg.Geom.HopLat, cfg.Geom.Clusters, *insts)

	cfg.TraceCycles = *ptrace
	s := pipeline.RunProgram(bm.ProgramFor(*insts), cfg)

	for _, line := range s.PipeTrace {
		fmt.Println(line)
	}
	printStats(s, kind)
}

// printStats renders the summary block shared by plain runs and resumes.
func printStats(s *pipeline.Stats, kind core.StrategyKind) {
	fmt.Printf("\ncycles               %d\n", s.Cycles)
	fmt.Printf("retired              %d (IPC %.3f)\n", s.Retired, s.IPC())
	fmt.Printf("from trace cache     %.1f%%  (avg trace size %.1f, TC hit rate %.1f%%)\n",
		100*s.PctFromTC(), s.AvgTraceSize(), 100*s.TC.HitRate())
	fmt.Printf("cond branches        %d (mispredict %.2f%%)\n", s.CondBranches, 100*s.MispredictRate())
	fmt.Printf("indirect mispredicts %d\n", s.IndirectMiss)
	fmt.Printf("loads/stores         %d/%d (store->load forwards %d)\n", s.Loads, s.Stores, s.StoreForwards)
	fmt.Printf("critical inputs      %.1f%% forwarded, %.1f%% of those inter-trace\n",
		100*s.CritFwdFrac(), 100*s.CritInterTraceFrac())
	fmt.Printf("forwarding locality  %.1f%% intra-cluster, mean distance %.3f hops\n",
		100*s.IntraClusterFrac(), s.AvgFwdDistance())
	if kind.UsesChains() {
		fmt.Printf("cluster chains       %d leaders, %d followers; migration %.2f%% (chain %.2f%%)\n",
			s.Fill.LeadersCreated, s.Fill.FollowersCreated,
			100*s.Fill.MigrationRate(), 100*s.Fill.ChainMigrationRate())
		fmt.Printf("fdrt options         A=%d B=%d C=%d D=%d E=%d skipped=%d\n",
			s.Fill.OptionA, s.Fill.OptionB, s.Fill.OptionC, s.Fill.OptionD, s.Fill.OptionE, s.Fill.Skipped)
	}
}

func openStore(dir string) *experiment.Store {
	st, err := experiment.OpenStore(dir)
	if err != nil {
		fatalf("%v", err)
	}
	return st
}

// saveLine renders one named save: its run and where that run stands.
func saveLine(e experiment.NameEntry) string {
	return fmt.Sprintf("%-20s %-10s %-12s budget=%-9d at=%-9d %-10s fp=%s",
		e.Name, e.Benchmark, e.Config, e.Budget, e.Every, e.Status, e.Fingerprint)
}

// runSave simulates bench under the named config up to its first checkpoint
// and records the run under name.
func runSave(st *experiment.Store, name, bench, config string, budget, at uint64) {
	if at == 0 {
		at = budget / 2
	}
	e, err := experiment.SaveName(st, name, bench, config, budget, at)
	if err != nil {
		fatalf("%v", err)
	}
	if e.Status == experiment.NameDone {
		fmt.Println("run finished before the save point; its result is in the store")
	}
	fmt.Println(saveLine(e))
}

// runResume finishes a named save from its checkpoint, or reads its result
// from the store if it already finished.
func runResume(st *experiment.Store, name string) {
	e, s, err := experiment.ResumeName(st, name)
	if err != nil {
		fatalf("%v", err)
	}
	from := "its checkpoint"
	if e.Status == experiment.NameDone {
		from = "the store"
	}
	fmt.Printf("resuming from %s: %s\n", from, saveLine(e))
	printStats(s, experiment.StrategyConfigs()[e.Config].Strategy)
}

func runSaves(st *experiment.Store, dir string) {
	entries, err := experiment.Names(st)
	if err != nil {
		fatalf("%v", err)
	}
	if len(entries) == 0 {
		fmt.Printf("no saves in %s\n", dir)
		return
	}
	for _, e := range entries {
		fmt.Println(saveLine(e))
	}
}
