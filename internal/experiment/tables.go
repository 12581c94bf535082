package experiment

import (
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// table1 reproduces Table 1, trace cache characteristics: %TC-instructions
// and mean trace size on the six selected benchmarks under the baseline.
func table1(r *Runner) []Section {
	s := Section{
		Title:  "Table 1: Trace Cache Characteristics",
		Header: []string{"bench", "% TC Instr", "Trace Size"},
		Notes: []string{
			"paper reports high %TC for all six and trace sizes of ~11-14;",
			"synthetic kernels have shorter basic blocks, so traces are shorter.",
		},
		Format:  []func(float64) string{stats.Pct, stats.F2},
		Summary: "Avg",
	}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s.Rows = append(s.Rows, BenchRow{bm.Name, []float64{ss[0].PctFromTC(), ss[0].AvgTraceSize()}})
	})
	return []Section{s}
}

// figure4 reproduces Figure 4, the source of the most critical input:
// fromRF, fromRS1 and fromRS2 as fractions of the inputs.
func figure4(r *Runner) []Section {
	s := Section{
		Title:  "Figure 4: Source of Most Critical Input Dependency",
		Header: []string{"bench", "From RF", "From RS1", "From RS2"},
		Notes: []string{
			"paper averages: RF 44%, RS1 31%, RS2 25%; the synthetic kernels'",
			"shorter dependence distances shift weight from the RF to forwarding.",
		},
		Format:  repeat(stats.Pct, 3),
		Summary: "Avg",
	}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		st := ss[0]
		// Guard the denominator while it is still an integer; comparing the
		// float64 against zero exactly is a floateq trap.
		n := st.WithInputs
		if n == 0 {
			n = 1
		}
		wi := float64(n)
		s.Rows = append(s.Rows, BenchRow{bm.Name, []float64{
			float64(st.CritFromRF) / wi,
			float64(st.CritFromRS1) / wi,
			float64(st.CritFromRS2) / wi,
		}})
	})
	return []Section{s}
}

// table2 reproduces Table 2, critical data forwarding dependencies: the
// share of critical inputs satisfied by forwarding and, of those, the share
// whose producer was in another trace, each next to the paper's value.
func table2(r *Runner) []Section {
	paper := map[string][2]float64{
		"bzip2": {0.8563, 0.2969}, "eon": {0.8658, 0.3540}, "gzip": {0.8094, 0.2438},
		"perlbmk": {0.8611, 0.2776}, "twolf": {0.7858, 0.2395}, "vpr": {0.8232, 0.2584},
	}
	s := Section{
		Title:   "Table 2: Critical Data Forwarding Dependencies",
		Header:  []string{"bench", "% crit fwd", "paper", "% inter-trace", "paper"},
		Format:  repeat(stats.Pct, 4),
		Summary: "Avg",
	}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		p := paper[bm.Name]
		s.Rows = append(s.Rows, BenchRow{bm.Name,
			[]float64{ss[0].CritFwdFrac(), p[0], ss[0].CritInterTraceFrac(), p[1]}})
	})
	return []Section{s}
}

// table3 reproduces Table 3, the frequency of repeated forwarding
// producers: RS1, RS2, critical inter-trace RS1 and RS2 repeat rates.
func table3(r *Runner) []Section {
	s := Section{
		Title:   "Table 3: Frequency of Repeated Forwarding Producers",
		Header:  []string{"bench", "RS1", "RS2", "crit-inter RS1", "crit-inter RS2"},
		Notes:   []string{"paper averages: 97.07% / 94.52% / 90.26% / 84.65%"},
		Format:  repeat(stats.Pct, 4),
		Summary: "Avg",
		Paper: map[string][]float64{
			"bzip2": {0.9745, 0.9766, 0.8930, 0.9117}, "eon": {0.9383, 0.8984, 0.8579, 0.7334},
			"gzip": {0.9814, 0.9902, 0.9293, 0.9604}, "perlbmk": {0.9778, 0.9379, 0.9083, 0.7927},
			"twolf": {0.9669, 0.9078, 0.8709, 0.7640}, "vpr": {0.9853, 0.9606, 0.9564, 0.9167},
		},
	}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		st := ss[0]
		s.Rows = append(s.Rows, BenchRow{bm.Name, []float64{
			st.RepeatRateRS1(), st.RepeatRateRS2(),
			st.RepeatRateCritRS1Inter(), st.RepeatRateCritRS2Inter(),
		}})
	})
	return []Section{s}
}

// figure5 reproduces Figure 5, the speedups from removing latencies: each
// latency-removal knob against the baseline.
func figure5(r *Runner) []Section {
	base := BaseConfig()
	mk := func(mod func(*pipeline.Config)) pipeline.Config {
		cfg := base
		mod(&cfg)
		return cfg
	}
	cols := []column{
		{"base", base},
		{"noFwd", mk(func(c *pipeline.Config) { c.ZeroAllFwdLat = true })},
		{"noCrit", mk(func(c *pipeline.Config) { c.ZeroCritFwdLat = true })},
		{"noIntra", mk(func(c *pipeline.Config) { c.ZeroIntraTrace = true })},
		{"noInter", mk(func(c *pipeline.Config) { c.ZeroInterTrace = true })},
		{"noRF", mk(func(c *pipeline.Config) { c.RFLat = 0 })},
	}
	s := Section{
		Title:  "Figure 5: Expected Speedup Removing Certain Latencies",
		Header: []string{"bench", "No Fwd", "No Crit Fwd", "No Intra-Trace", "No Inter-Trace", "No RF"},
		Notes: []string{
			"paper harmonic means: 1.418 / 1.372 / 1.177 / 1.155 / ~1.00",
			"expected shape: NoFwd >= NoCrit >> NoIntra ~ NoInter >> NoRF ~ 1.0",
		},
		Format:  repeat(stats.F3, 5),
		Summary: "HM",
	}
	runRows(r, workload.Selected(), cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s.Rows = append(s.Rows, BenchRow{bm.Name, speedups(ss)})
	})
	return []Section{s}
}
