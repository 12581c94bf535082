package experiment

import (
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// BenchRow pairs one benchmark with measured values (and optionally the
// paper's reported value for the same cell).
type BenchRow struct {
	Bench  string
	Values []float64
}

// Table1Result reproduces Table 1: trace cache characteristics.
type Table1Result struct {
	Rows []BenchRow // values: pctTC (0..1), avg trace size
}

// Table1 measures %TC-instructions and mean trace size on the six selected
// benchmarks under the baseline configuration.
func Table1(r *Runner) *Table1Result {
	res := &Table1Result{}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s := ss[0]
		res.Rows = append(res.Rows, BenchRow{bm.Name, []float64{s.PctFromTC(), s.AvgTraceSize()}})
	})
	return res
}

// Render formats the result.
func (t *Table1Result) Render() string {
	tab := &stats.Table{
		Title:  "Table 1: Trace Cache Characteristics",
		Header: []string{"bench", "% TC Instr", "Trace Size"},
		Notes: []string{
			"paper reports high %TC for all six and trace sizes of ~11-14;",
			"synthetic kernels have shorter basic blocks, so traces are shorter.",
		},
	}
	for _, row := range t.Rows {
		tab.AddRow(row.Bench, stats.Pct(row.Values[0]), stats.F2(row.Values[1]))
	}
	avg := columnMean(t.Rows, 2)
	tab.AddRow("Avg", stats.Pct(avg[0]), stats.F2(avg[1]))
	return tab.Render()
}

// Figure4Result reproduces Figure 4: source of the most critical input.
type Figure4Result struct {
	Rows []BenchRow // values: fromRF, fromRS1, fromRS2 (fractions of WithInputs)
}

// Figure4 measures the critical-input source breakdown.
func Figure4(r *Runner) *Figure4Result {
	res := &Figure4Result{}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s := ss[0]
		// Guard the denominator while it is still an integer; comparing the
		// float64 against zero exactly is a floateq trap.
		n := s.WithInputs
		if n == 0 {
			n = 1
		}
		wi := float64(n)
		res.Rows = append(res.Rows, BenchRow{bm.Name, []float64{
			float64(s.CritFromRF) / wi,
			float64(s.CritFromRS1) / wi,
			float64(s.CritFromRS2) / wi,
		}})
	})
	return res
}

// Render formats the result.
func (f *Figure4Result) Render() string {
	tab := &stats.Table{
		Title:  "Figure 4: Source of Most Critical Input Dependency",
		Header: []string{"bench", "From RF", "From RS1", "From RS2"},
		Notes: []string{
			"paper averages: RF 44%, RS1 31%, RS2 25%; the synthetic kernels'",
			"shorter dependence distances shift weight from the RF to forwarding.",
		},
	}
	for _, row := range f.Rows {
		tab.AddRow(row.Bench, stats.Pct(row.Values[0]), stats.Pct(row.Values[1]), stats.Pct(row.Values[2]))
	}
	avg := columnMean(f.Rows, 3)
	tab.AddRow("Avg", stats.Pct(avg[0]), stats.Pct(avg[1]), stats.Pct(avg[2]))
	return tab.Render()
}

// Table2Result reproduces Table 2: critical data forwarding dependencies.
type Table2Result struct {
	Rows  []BenchRow // values: critFwdFrac, critInterTraceFrac
	Paper map[string][2]float64
}

// Table2 measures the share of critical inputs satisfied by forwarding and,
// of those, the share whose producer was in another trace.
func Table2(r *Runner) *Table2Result {
	res := &Table2Result{Paper: map[string][2]float64{
		"bzip2": {0.8563, 0.2969}, "eon": {0.8658, 0.3540}, "gzip": {0.8094, 0.2438},
		"perlbmk": {0.8611, 0.2776}, "twolf": {0.7858, 0.2395}, "vpr": {0.8232, 0.2584},
	}}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s := ss[0]
		res.Rows = append(res.Rows, BenchRow{bm.Name,
			[]float64{s.CritFwdFrac(), s.CritInterTraceFrac()}})
	})
	return res
}

// Render formats the result.
func (t *Table2Result) Render() string {
	tab := &stats.Table{
		Title:  "Table 2: Critical Data Forwarding Dependencies",
		Header: []string{"bench", "% crit fwd", "paper", "% inter-trace", "paper"},
	}
	for _, row := range t.Rows {
		p := t.Paper[row.Bench]
		tab.AddRow(row.Bench, stats.Pct(row.Values[0]), stats.Pct(p[0]),
			stats.Pct(row.Values[1]), stats.Pct(p[1]))
	}
	avg := columnMean(t.Rows, 2)
	tab.AddRow("Avg", stats.Pct(avg[0]), "83.36%", stats.Pct(avg[1]), "27.84%")
	return tab.Render()
}

// Table3Result reproduces Table 3: frequency of repeated forwarding
// producers.
type Table3Result struct {
	Rows  []BenchRow // values: RS1, RS2, critInterRS1, critInterRS2 repeat rates
	Paper map[string][4]float64
}

// Table3 measures producer repeatability.
func Table3(r *Runner) *Table3Result {
	res := &Table3Result{Paper: map[string][4]float64{
		"bzip2": {0.9745, 0.9766, 0.8930, 0.9117}, "eon": {0.9383, 0.8984, 0.8579, 0.7334},
		"gzip": {0.9814, 0.9902, 0.9293, 0.9604}, "perlbmk": {0.9778, 0.9379, 0.9083, 0.7927},
		"twolf": {0.9669, 0.9078, 0.8709, 0.7640}, "vpr": {0.9853, 0.9606, 0.9564, 0.9167},
	}}
	runRows(r, workload.Selected(), strategies("base"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s := ss[0]
		res.Rows = append(res.Rows, BenchRow{bm.Name, []float64{
			s.RepeatRateRS1(), s.RepeatRateRS2(),
			s.RepeatRateCritRS1Inter(), s.RepeatRateCritRS2Inter(),
		}})
	})
	return res
}

// Render formats the result.
func (t *Table3Result) Render() string {
	tab := &stats.Table{
		Title:  "Table 3: Frequency of Repeated Forwarding Producers",
		Header: []string{"bench", "RS1", "RS2", "crit-inter RS1", "crit-inter RS2"},
		Notes:  []string{"paper averages: 97.07% / 94.52% / 90.26% / 84.65%"},
	}
	for _, row := range t.Rows {
		tab.AddRow(row.Bench, stats.Pct(row.Values[0]), stats.Pct(row.Values[1]),
			stats.Pct(row.Values[2]), stats.Pct(row.Values[3]))
	}
	avg := columnMean(t.Rows, 4)
	tab.AddRow("Avg", stats.Pct(avg[0]), stats.Pct(avg[1]), stats.Pct(avg[2]), stats.Pct(avg[3]))
	return tab.Render()
}

// Figure5Result reproduces Figure 5: speedups from removing latencies.
type Figure5Result struct {
	// Rows hold speedups: NoFwd, NoCritFwd, NoIntraTrace, NoInterTrace, NoRF
	Rows []BenchRow
}

// Figure5 sweeps the latency-removal knobs against the baseline.
func Figure5(r *Runner) *Figure5Result {
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
	res := &Figure5Result{}
	runRows(r, workload.Selected(), cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
		res.Rows = append(res.Rows, BenchRow{bm.Name, speedups(ss)})
	})
	return res
}

// HM returns the harmonic means of each column.
func (f *Figure5Result) HM() []float64 { return columnHM(f.Rows, 5) }

// Render formats the result.
func (f *Figure5Result) Render() string {
	tab := &stats.Table{
		Title:  "Figure 5: Expected Speedup Removing Certain Latencies",
		Header: []string{"bench", "No Fwd", "No Crit Fwd", "No Intra-Trace", "No Inter-Trace", "No RF"},
		Notes: []string{
			"paper harmonic means: 1.418 / 1.372 / 1.177 / 1.155 / ~1.00",
			"expected shape: NoFwd >= NoCrit >> NoIntra ~ NoInter >> NoRF ~ 1.0",
		},
	}
	appendRowsWithHM(tab, f.Rows, f.HM())
	return tab.Render()
}
