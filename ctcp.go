// Package ctcp is the public API of the clustered trace cache processor
// (CTCP) simulator — a from-scratch Go reproduction of Bhargava & John,
// "Improving Dynamic Cluster Assignment for Clustered Trace Cache
// Processors" (ISCA 2003).
//
// The package re-exports the stable surface of the internal packages:
//
//   - building and assembling TRISC-64 programs (Assemble, NewProgramBuilder),
//   - functional execution (NewMachine),
//   - cycle-level simulation of the clustered trace cache processor under a
//     chosen cluster-assignment strategy (Run, DefaultConfig),
//   - the benchmark suite of SPECint2000 and MediaBench analogs
//     (SPECint, MediaBench, SelectedBenchmarks), and
//   - the experiment harness that regenerates every table and figure of the
//     paper's evaluation by name (NewExperiments, Experiments.Render).
//
// A minimal session:
//
//	bm, _ := ctcp.BenchmarkByName("gzip")
//	cfg := ctcp.DefaultConfig().WithStrategy(ctcp.FDRT, false)
//	stats := ctcp.Run(bm, cfg, 200_000)
//	fmt.Printf("IPC %.2f, %.0f%% intra-cluster forwarding\n",
//	    stats.IPC(), 100*stats.IntraClusterFrac())
package ctcp

import (
	"fmt"

	"ctcp/internal/asm"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/experiment"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/prog"
	"ctcp/internal/workload"
)

// Strategy selects a dynamic cluster assignment scheme.
type Strategy = core.StrategyKind

// The assignment strategies of the paper (§2.3, §4).
const (
	// Base is slot-based issue of unreordered trace lines.
	Base = core.Base
	// IssueTime steers instructions at issue based on in-flight producers.
	IssueTime = core.IssueTime
	// Friendly is the prior retire-time intra-trace reordering scheme.
	Friendly = core.Friendly
	// FriendlyMiddle biases Friendly toward the middle clusters.
	FriendlyMiddle = core.FriendlyMiddle
	// FDRT is the paper's feedback-directed retire-time assignment.
	FDRT = core.FDRT
	// FDRTNoPin is FDRT without pinning chain members to one cluster.
	FDRTNoPin = core.FDRTNoPin
)

// Config is the full architectural configuration (Table 7 defaults).
type Config = pipeline.Config

// Stats is the complete statistics record of one simulation.
type Stats = pipeline.Stats

// SimError is the typed error returned when a simulation aborts on an
// internal invariant failure and is recovered at the run boundary
// (RunErr, RunProgramErr, the experiment harness).
type SimError = pipeline.SimError

// Program is a loadable TRISC-64 image.
type Program = isa.Program

// Benchmark is one workload of the synthetic SPECint/MediaBench suite.
type Benchmark = workload.Benchmark

// Machine is the architectural (functional) TRISC-64 emulator.
type Machine = emu.Machine

// ProgramBuilder constructs TRISC-64 programs from Go code.
type ProgramBuilder = prog.Builder

// DefaultConfig returns the paper's baseline CTCP: 16-wide, four four-wide
// clusters, chain interconnect with 2-cycle hops, Table 7 memory system.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// Run simulates the benchmark for maxInsts committed instructions under cfg
// and returns the statistics.
func Run(bm Benchmark, cfg Config, maxInsts uint64) *Stats {
	cfg.MaxInsts = maxInsts
	return pipeline.RunProgram(bm.ProgramFor(maxInsts), cfg)
}

// RunErr is Run with graceful degradation: a simulation aborted by an
// internal invariant failure returns a *SimError instead of panicking.
func RunErr(bm Benchmark, cfg Config, maxInsts uint64) (*Stats, error) {
	cfg.MaxInsts = maxInsts
	return pipeline.RunProgramErr(bm.ProgramFor(maxInsts), cfg)
}

// RunProgram simulates an arbitrary program under cfg.
func RunProgram(p *Program, cfg Config) *Stats { return pipeline.RunProgram(p, cfg) }

// RunProgramErr simulates an arbitrary program under cfg, converting an
// internal invariant panic into a *SimError instead of crashing.
func RunProgramErr(p *Program, cfg Config) (*Stats, error) {
	return pipeline.RunProgramErr(p, cfg)
}

// NewMachine returns a functional emulator loaded with p.
func NewMachine(p *Program) *Machine { return emu.New(p) }

// NewProgramBuilder returns an empty program builder.
func NewProgramBuilder() *ProgramBuilder { return prog.New() }

// Assemble translates TRISC-64 text assembly into a program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders a program listing.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// SPECint returns the 12 SPEC CPU2000 integer benchmark analogs.
func SPECint() []Benchmark { return workload.SPECint() }

// MediaBench returns the 14 MediaBench analogs.
func MediaBench() []Benchmark { return workload.MediaBench() }

// AllBenchmarks returns the full 26-program suite.
func AllBenchmarks() []Benchmark { return workload.All() }

// SelectedBenchmarks returns the six forwarding-sensitive SPECint programs
// the paper studies in depth.
func SelectedBenchmarks() []Benchmark { return workload.Selected() }

// BenchmarkByName looks a benchmark up across both suites.
func BenchmarkByName(name string) (Benchmark, bool) { return workload.ByName(name) }

// Experiments regenerates the paper's tables and figures. Results are
// memoized across experiments, so regenerating everything simulates each
// benchmark/configuration pair once.
type Experiments struct {
	r *experiment.Runner
}

// NewExperiments returns an experiment harness with the given per-run
// instruction budget (0 = the default 200k).
func NewExperiments(budget uint64) *Experiments {
	return &Experiments{r: experiment.NewRunner(experiment.Options{Budget: budget})}
}

// Render regenerates the named artifact of experiment.Artifacts, such as
// "table1", as plain text. An unknown name is an error that lists the valid
// ones.
func (e *Experiments) Render(name string) (string, error) {
	for _, a := range experiment.Artifacts {
		if a.Name == name {
			return a.Render(e.r), nil
		}
	}
	return "", fmt.Errorf("ctcp: unknown artifact %q (one of: %s)", name, experiment.ArtifactNames())
}

// RunnerStats snapshots the harness's execution counters: simulations
// started/completed/failed, duplicate requests deduplicated, and cache hits.
func (e *Experiments) RunnerStats() experiment.RunnerStats { return e.r.Stats() }

// Failures returns the per-key errors of simulations that aborted
// (empty when everything succeeded). Artifacts whose runs failed render
// without those rows rather than crashing.
func (e *Experiments) Failures() map[string]error { return e.r.Errors() }

// FailureSummary renders the recorded failures for display; "" when all
// runs succeeded.
func (e *Experiments) FailureSummary() string { return e.r.FailureSummary() }
