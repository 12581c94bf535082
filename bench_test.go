package ctcp

// One testing.B sub-benchmark per registry entry: each regenerates the table
// or figure end to end (workload generation, full-matrix simulation,
// baseline comparison, rendering). Budgets are reduced relative to
// cmd/ctcpbench so `go test -bench=.` completes in minutes; pass
// -benchtime=1x for a single regeneration per artifact.

import (
	"testing"

	"ctcp/internal/experiment"
)

const benchBudget = 25_000

// BenchmarkArtifacts regenerates each entry of experiment.Artifacts
// (BenchmarkArtifacts/<name>) on a fresh, uncached runner per iteration, so
// each measures full regeneration work.
func BenchmarkArtifacts(b *testing.B) {
	for _, a := range experiment.Artifacts {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiment.NewRunner(experiment.Options{Budget: benchBudget})
				for _, s := range a.Build(r) {
					if len(s.Rows) == 0 {
						b.Fatalf("%s: no rows", s.Title)
					}
					_ = s.Render()
				}
			}
		})
	}
}

// BenchmarkPipelineThroughput measures raw simulation speed (committed
// instructions per wall-clock second) of the baseline configuration.
func BenchmarkPipelineThroughput(b *testing.B) {
	bm, _ := BenchmarkByName("gzip")
	prog := bm.ProgramFor(benchBudget)
	cfg := DefaultConfig()
	cfg.MaxInsts = benchBudget
	b.ResetTimer()
	total := int64(0)
	for i := 0; i < b.N; i++ {
		s := RunProgram(prog, cfg)
		total += int64(s.Retired)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}
