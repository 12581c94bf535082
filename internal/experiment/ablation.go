package experiment

import (
	"ctcp/internal/core"
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// AblationResult reproduces the §5.3 decomposition of where FDRT's
// improvement comes from: Friendly alone, Friendly biased to the middle
// clusters (the paper's "minor adjustment", +4.7%), FDRT with only the
// intra-trace heuristics (chains ablated; paper: +5.7%), full FDRT
// (paper: +11.5%), and FDRT without chain pinning.
type AblationResult struct {
	// Rows: Friendly, FriendlyMiddle, FDRT-intra-only, FDRT, FDRT-NoPin.
	Rows []BenchRow
}

// Ablation runs the strategy decomposition on the six selected benchmarks.
func Ablation(r *Runner) *AblationResult {
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
	res := &AblationResult{}
	runRows(r, workload.Selected(), cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
		res.Rows = append(res.Rows, BenchRow{bm.Name, speedups(ss)})
	})
	return res
}

// HM returns per-variant harmonic means.
func (a *AblationResult) HM() []float64 { return columnHM(a.Rows, 5) }

// Render formats the result.
func (a *AblationResult) Render() string {
	tab := &stats.Table{
		Title:  "Ablation (paper §5.3): where the retire-time improvement comes from",
		Header: []string{"bench", "Friendly", "Friendly-mid", "FDRT intra-only", "FDRT", "FDRT no-pin"},
		Notes: []string{
			"paper: Friendly 1.031, Friendly-middle 1.047, FDRT intra-only 1.057, FDRT 1.115",
		},
	}
	appendRowsWithHM(tab, a.Rows, a.HM())
	return tab.Render()
}
