package experiment

import (
	"ctcp/internal/core"
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// ablation reproduces the §5.3 decomposition of where FDRT's improvement
// comes from, on the six selected benchmarks: Friendly alone, Friendly
// biased to the middle clusters (the paper's "minor adjustment", +4.7%),
// FDRT with only the intra-trace heuristics (chains ablated; paper: +5.7%),
// full FDRT (paper: +11.5%), and FDRT without chain pinning.
func ablation(r *Runner) []Section {
	base := BaseConfig()
	intraOnly := base.WithStrategy(core.FDRT, false)
	intraOnly.DisableChains = true
	cols := []column{
		{"base", base},
		{"friendly", base.WithStrategy(core.Friendly, false)},
		{"friendly-mid", base.WithStrategy(core.FriendlyMiddle, false)},
		{"fdrt-intra", intraOnly},
		{"fdrt", base.WithStrategy(core.FDRT, false)},
		{"fdrt-nopin", base.WithStrategy(core.FDRTNoPin, false)},
	}
	s := Section{
		Title:  "Ablation (paper §5.3): where the retire-time improvement comes from",
		Header: []string{"bench", "Friendly", "Friendly-mid", "FDRT intra-only", "FDRT", "FDRT no-pin"},
		Notes: []string{
			"paper: Friendly 1.031, Friendly-middle 1.047, FDRT intra-only 1.057, FDRT 1.115",
		},
		Format:  repeat(stats.F3, 5),
		Summary: "HM",
	}
	runRows(r, workload.Selected(), cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s.Rows = append(s.Rows, BenchRow{bm.Name, speedups(ss)})
	})
	return []Section{s}
}
