package experiment

import (
	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// Figure6Result reproduces Figure 6: speedup by cluster assignment strategy
// on the six selected benchmarks.
type Figure6Result struct {
	// Rows: No-lat issue-time, Issue-time(4), FDRT, Friendly speedups.
	Rows []BenchRow
}

// Figure6 compares the assignment strategies against the baseline.
func Figure6(r *Runner) *Figure6Result {
	cfgs := StrategyConfigs()
	r.Prefetch(workload.Selected(), cfgs)
	res := &Figure6Result{}
	for _, bm := range workload.Selected() {
		b := r.Run(bm, "base", cfgs["base"])
		i0 := r.Run(bm, "issue0", cfgs["issue0"])
		i4 := r.Run(bm, "issue4", cfgs["issue4"])
		fd := r.Run(bm, "fdrt", cfgs["fdrt"])
		fr := r.Run(bm, "friendly", cfgs["friendly"])
		if !statsOK(b, i0, i4, fd, fr) {
			continue
		}
		res.Rows = append(res.Rows, BenchRow{bm.Name, []float64{
			speedup(b, i0), speedup(b, i4), speedup(b, fd), speedup(b, fr),
		}})
	}
	return res
}

// HM returns per-strategy harmonic means.
func (f *Figure6Result) HM() []float64 { return columnHM(f.Rows, 4) }

// Render formats the result.
func (f *Figure6Result) Render() string {
	tab := &stats.Table{
		Title:  "Figure 6: Speedup Due to Cluster Assignment Strategy",
		Header: []string{"bench", "No-lat Issue", "Issue-time", "FDRT", "Friendly"},
		Notes: []string{
			"paper harmonic means: 1.172 / ~1.11 / 1.115 / 1.031",
		},
	}
	appendRowsWithHM(tab, f.Rows, f.HM())
	return tab.Render()
}

// Table8Result reproduces Table 8: critical-input forwarding locality for
// Base / Friendly / FDRT.
type Table8Result struct {
	IntraRows  []BenchRow // fractions intra-cluster
	DistRows   []BenchRow // average forwarding distance (hops)
	PaperIntra map[string][3]float64
}

// Table8 measures intra-cluster forwarding share and mean distance.
func Table8(r *Runner) *Table8Result {
	cfgs := StrategyConfigs()
	r.Prefetch(workload.Selected(), cfgs)
	res := &Table8Result{PaperIntra: map[string][3]float64{
		"bzip2": {0.3978, 0.6084, 0.7954}, "eon": {0.3373, 0.5283, 0.5135},
		"gzip": {0.3294, 0.5391, 0.5825}, "perlbmk": {0.4495, 0.5836, 0.6201},
		"twolf": {0.4783, 0.5691, 0.5892}, "vpr": {0.3867, 0.5870, 0.5958},
	}}
	for _, bm := range workload.Selected() {
		var intra, dist []float64
		ok := true
		for _, key := range []string{"base", "friendly", "fdrt"} {
			s := r.Run(bm, key, cfgs[key])
			if !statsOK(s) {
				ok = false
				break
			}
			intra = append(intra, s.IntraClusterFrac())
			dist = append(dist, s.AvgFwdDistance())
		}
		if !ok {
			continue
		}
		res.IntraRows = append(res.IntraRows, BenchRow{bm.Name, intra})
		res.DistRows = append(res.DistRows, BenchRow{bm.Name, dist})
	}
	return res
}

// Render formats the result.
func (t *Table8Result) Render() string {
	a := &stats.Table{
		Title:  "Table 8a: Percentage of Intra-Cluster Forwarding (critical inputs)",
		Header: []string{"bench", "Base", "Friendly", "FDRT", "paper(B/F/FDRT)"},
		Notes:  []string{"paper averages: 39.65% / 56.93% / 61.61%"},
	}
	for _, row := range t.IntraRows {
		p := t.PaperIntra[row.Bench]
		a.AddRow(row.Bench, stats.Pct(row.Values[0]), stats.Pct(row.Values[1]), stats.Pct(row.Values[2]),
			stats.Pct(p[0])+"/"+stats.Pct(p[1])+"/"+stats.Pct(p[2]))
	}
	avg := columnMean(t.IntraRows, 3)
	a.AddRow("Avg", stats.Pct(avg[0]), stats.Pct(avg[1]), stats.Pct(avg[2]), "")
	b := &stats.Table{
		Title:  "Table 8b: Average Data Forwarding Distance (hops)",
		Header: []string{"bench", "Base", "Friendly", "FDRT"},
		Notes:  []string{"paper: FDRT reduces average distance ~40% below base and always below Friendly"},
	}
	for _, row := range t.DistRows {
		b.AddRow(row.Bench, stats.F3(row.Values[0]), stats.F3(row.Values[1]), stats.F3(row.Values[2]))
	}
	avg = columnMean(t.DistRows, 3)
	b.AddRow("Avg", stats.F3(avg[0]), stats.F3(avg[1]), stats.F3(avg[2]))
	return a.Render() + "\n" + b.Render()
}

// Figure7Result reproduces Figure 7: distribution of FDRT options A-E.
type Figure7Result struct {
	Rows []BenchRow // A,B,C,D,E fractions + skipped fraction
}

// Figure7 histograms the FDRT assignment options.
func Figure7(r *Runner) *Figure7Result {
	cfgs := StrategyConfigs()
	r.Prefetch(workload.Selected(), map[string]pipeline.Config{"fdrt": cfgs["fdrt"]})
	res := &Figure7Result{}
	for _, bm := range workload.Selected() {
		s := r.Run(bm, "fdrt", cfgs["fdrt"])
		if !statsOK(s) {
			continue
		}
		f := s.Fill
		// Guard the denominator while it is still an integer; comparing the
		// float64 against zero exactly is a floateq trap.
		n := f.OptionA + f.OptionB + f.OptionC + f.OptionD + f.OptionE
		if n == 0 {
			n = 1
		}
		tot := float64(n)
		res.Rows = append(res.Rows, BenchRow{bm.Name, []float64{
			float64(f.OptionA) / tot, float64(f.OptionB) / tot, float64(f.OptionC) / tot,
			float64(f.OptionD) / tot, float64(f.OptionE) / tot, float64(f.Skipped) / tot,
		}})
	}
	return res
}

// Render formats the result.
func (f *Figure7Result) Render() string {
	tab := &stats.Table{
		Title:  "Figure 7: FDRT Critical Input Distribution (options of Table 5)",
		Header: []string{"bench", "A intra", "B chain", "C both", "D consumer", "E none", "skipped"},
		Notes: []string{
			"paper averages: A 37%, B 18%, C 9%, D 11%, E 24%, skipped <1%;",
			"loop-carried dependences make chains more common in the synthetic suite.",
		},
	}
	for _, row := range f.Rows {
		cells := []string{row.Bench}
		for _, v := range row.Values {
			cells = append(cells, stats.Pct(v))
		}
		tab.AddRow(cells...)
	}
	avg := []string{"Avg"}
	for _, v := range columnMean(f.Rows, 6) {
		avg = append(avg, stats.Pct(v))
	}
	tab.AddRow(avg...)
	return tab.Render()
}

// Table9Result reproduces Table 9: instruction cluster migration with and
// without pinning.
type Table9Result struct {
	Rows  []BenchRow // pin rate, nopin rate, all reduction, chain reduction
	Paper map[string][2]float64
}

// Table9 compares migration under FDRT and FDRT-NoPin.
func Table9(r *Runner) *Table9Result {
	cfgs := StrategyConfigs()
	r.Prefetch(workload.Selected(), map[string]pipeline.Config{
		"fdrt": cfgs["fdrt"], "fdrt-nopin": cfgs["fdrt-nopin"],
	})
	res := &Table9Result{Paper: map[string][2]float64{
		"bzip2": {0.0035, 0.0098}, "eon": {0.0594, 0.0827}, "gzip": {0.0597, 0.0826},
		"perlbmk": {0.0377, 0.0359}, "twolf": {0.0508, 0.0892}, "vpr": {0.0436, 0.0477},
	}}
	for _, bm := range workload.Selected() {
		pinS := r.Run(bm, "fdrt", cfgs["fdrt"])
		nopS := r.Run(bm, "fdrt-nopin", cfgs["fdrt-nopin"])
		if !statsOK(pinS, nopS) {
			continue
		}
		pin, nop := pinS.Fill, nopS.Fill
		allRed, chainRed := 0.0, 0.0
		if nop.MigrationRate() > 0 {
			allRed = 1 - pin.MigrationRate()/nop.MigrationRate()
		}
		if nop.ChainMigrationRate() > 0 {
			chainRed = 1 - pin.ChainMigrationRate()/nop.ChainMigrationRate()
		}
		res.Rows = append(res.Rows, BenchRow{bm.Name, []float64{
			pin.MigrationRate(), nop.MigrationRate(), allRed, chainRed,
		}})
	}
	return res
}

// Render formats the result.
func (t *Table9Result) Render() string {
	tab := &stats.Table{
		Title:  "Table 9: Instruction Cluster Migration",
		Header: []string{"bench", "Pinning", "No Pinning", "All reduction", "Chain reduction", "paper(P/NP)"},
		Notes:  []string{"paper averages: 4.25% / 5.80% / 27.71% / 40.98%"},
	}
	for _, row := range t.Rows {
		p := t.Paper[row.Bench]
		tab.AddRow(row.Bench, stats.Pct(row.Values[0]), stats.Pct(row.Values[1]),
			stats.Pct(row.Values[2]), stats.Pct(row.Values[3]),
			stats.Pct(p[0])+"/"+stats.Pct(p[1]))
	}
	avg := columnMean(t.Rows, 4)
	tab.AddRow("Avg", stats.Pct(avg[0]), stats.Pct(avg[1]), stats.Pct(avg[2]), stats.Pct(avg[3]), "")
	return tab.Render()
}

// Table10Result reproduces Table 10: intra-cluster critical forwarding with
// and without pinning.
type Table10Result struct {
	Rows  []BenchRow // pin, nopin intra-cluster fractions
	Paper map[string][2]float64
}

// Table10 compares forwarding locality under pinning.
func Table10(r *Runner) *Table10Result {
	cfgs := StrategyConfigs()
	r.Prefetch(workload.Selected(), map[string]pipeline.Config{
		"fdrt": cfgs["fdrt"], "fdrt-nopin": cfgs["fdrt-nopin"],
	})
	res := &Table10Result{Paper: map[string][2]float64{
		"bzip2": {0.7747, 0.6669}, "eon": {0.4972, 0.5088}, "gzip": {0.5603, 0.5503},
		"perlbmk": {0.6532, 0.6536}, "twolf": {0.5751, 0.5713}, "vpr": {0.5701, 0.5634},
	}}
	for _, bm := range workload.Selected() {
		pin := r.Run(bm, "fdrt", cfgs["fdrt"])
		nop := r.Run(bm, "fdrt-nopin", cfgs["fdrt-nopin"])
		if !statsOK(pin, nop) {
			continue
		}
		res.Rows = append(res.Rows, BenchRow{bm.Name,
			[]float64{pin.IntraClusterFrac(), nop.IntraClusterFrac()}})
	}
	return res
}

// Render formats the result.
func (t *Table10Result) Render() string {
	tab := &stats.Table{
		Title:  "Table 10: Intra-Cluster Critical Data Forwarding vs. Pinning",
		Header: []string{"bench", "With Pinning", "No Pinning", "paper(P/NP)"},
		Notes:  []string{"paper averages: 60.51% / 58.57%"},
	}
	for _, row := range t.Rows {
		p := t.Paper[row.Bench]
		tab.AddRow(row.Bench, stats.Pct(row.Values[0]), stats.Pct(row.Values[1]),
			stats.Pct(p[0])+"/"+stats.Pct(p[1]))
	}
	avg := columnMean(t.Rows, 2)
	tab.AddRow("Avg", stats.Pct(avg[0]), stats.Pct(avg[1]), "")
	return tab.Render()
}

// Figure8Result reproduces Figure 8: strategy speedups under alternate
// cluster configurations, each relative to its own baseline.
type Figure8Result struct {
	// Configs are "ring", "hop1", "2x4"; per config, rows of
	// (FDRT, Friendly, IssueTime) speedups.
	Configs map[string][]BenchRow
}

// fig8Variant derives an alternate-architecture config from the baseline.
func fig8Variant(name string) pipeline.Config {
	cfg := BaseConfig()
	switch name {
	case "ring":
		cfg.Geom.Topology = cluster.Ring
	case "hop1":
		cfg.Geom.HopLat = 1
	case "2x4":
		cfg.Geom.Clusters = 2
		cfg.FetchWidth = 8
		cfg.RetireWidth = 8
		cfg.Trace.MaxLen = 8
	}
	return cfg
}

// Figure8 sweeps the three architecture variants.
func Figure8(r *Runner) *Figure8Result {
	res := &Figure8Result{Configs: map[string][]BenchRow{}}
	for _, name := range []string{"ring", "hop1", "2x4"} {
		base := fig8Variant(name)
		cfgs := map[string]pipeline.Config{
			name + "/base":     base,
			name + "/fdrt":     base.WithStrategy(core.FDRT, false),
			name + "/friendly": base.WithStrategy(core.Friendly, false),
			name + "/issue":    base.WithStrategy(core.IssueTime, false),
		}
		r.Prefetch(workload.Selected(), cfgs)
		for _, bm := range workload.Selected() {
			b := r.Run(bm, name+"/base", cfgs[name+"/base"])
			fd := r.Run(bm, name+"/fdrt", cfgs[name+"/fdrt"])
			fr := r.Run(bm, name+"/friendly", cfgs[name+"/friendly"])
			is := r.Run(bm, name+"/issue", cfgs[name+"/issue"])
			if !statsOK(b, fd, fr, is) {
				continue
			}
			res.Configs[name] = append(res.Configs[name], BenchRow{bm.Name, []float64{
				speedup(b, fd), speedup(b, fr), speedup(b, is),
			}})
		}
	}
	return res
}

// HM returns the per-strategy harmonic means for one variant.
func (f *Figure8Result) HM(name string) []float64 { return columnHM(f.Configs[name], 3) }

// Render formats the result.
func (f *Figure8Result) Render() string {
	out := ""
	titles := map[string]string{
		"ring": "Mesh (ring) interconnect", "hop1": "One-cycle forwarding hop",
		"2x4": "Eight-wide, two clusters",
	}
	for _, name := range []string{"ring", "hop1", "2x4"} {
		tab := &stats.Table{
			Title:  "Figure 8 (" + titles[name] + "): speedup over this configuration's base",
			Header: []string{"bench", "FDRT", "Friendly", "Issue-time"},
		}
		appendRowsWithHM(tab, f.Configs[name], f.HM(name))
		out += tab.Render() + "\n"
	}
	return out
}

// Figure9Result reproduces Figure 9: suite-wide mean speedups.
type Figure9Result struct {
	// Suites: "SPECint2000", "MediaBench" -> HM speedups for
	// No-lat issue, Issue-time, FDRT, Friendly.
	Suites map[string][]float64
	Rows   map[string][]BenchRow
}

// Figure9 runs the full suites.
func Figure9(r *Runner) *Figure9Result {
	cfgs := StrategyConfigs()
	res := &Figure9Result{Suites: map[string][]float64{}, Rows: map[string][]BenchRow{}}
	// Fixed iteration order: suite order decides run submission and row
	// grouping, so it must not depend on map iteration.
	suites := []struct {
		name string
		bms  []workload.Benchmark
	}{
		{"SPECint2000", workload.SPECint()},
		{"MediaBench", workload.MediaBench()},
	}
	for _, suite := range suites {
		name, bms := suite.name, suite.bms
		r.Prefetch(bms, cfgs)
		for _, bm := range bms {
			b := r.Run(bm, "base", cfgs["base"])
			i0 := r.Run(bm, "issue0", cfgs["issue0"])
			i4 := r.Run(bm, "issue4", cfgs["issue4"])
			fd := r.Run(bm, "fdrt", cfgs["fdrt"])
			fr := r.Run(bm, "friendly", cfgs["friendly"])
			if !statsOK(b, i0, i4, fd, fr) {
				continue
			}
			res.Rows[name] = append(res.Rows[name], BenchRow{bm.Name, []float64{
				speedup(b, i0), speedup(b, i4), speedup(b, fd), speedup(b, fr),
			}})
		}
		res.Suites[name] = columnHM(res.Rows[name], 4)
	}
	return res
}

// Render formats the result.
func (f *Figure9Result) Render() string {
	out := ""
	for _, name := range []string{"SPECint2000", "MediaBench"} {
		tab := &stats.Table{
			Title:  "Figure 9 (" + name + "): speedup over base",
			Header: []string{"bench", "No-lat Issue", "Issue-time", "FDRT", "Friendly"},
		}
		appendRowsWithHM(tab, f.Rows[name], f.Suites[name])
		if name == "SPECint2000" {
			tab.Notes = []string{"paper harmonic means: n/a / 1.038 / 1.071 / 1.019"}
		} else {
			tab.Notes = []string{"paper harmonic means: 1.042 / 1.017 / 1.082 / 1.037"}
		}
		out += tab.Render() + "\n"
	}
	return out
}

// --- shared helpers ---

// columnHM returns the harmonic mean of each of the first n value columns.
func columnHM(rows []BenchRow, n int) []float64 { return columnAgg(rows, n, stats.HarmonicMean) }

// columnMean returns the arithmetic mean of each of the first n value
// columns: the "Avg" row of the percentage tables.
func columnMean(rows []BenchRow, n int) []float64 { return columnAgg(rows, n, stats.Mean) }

func columnAgg(rows []BenchRow, n int, agg func([]float64) float64) []float64 {
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var col []float64
		for _, row := range rows {
			col = append(col, row.Values[k])
		}
		out[k] = agg(col)
	}
	return out
}

func appendRowsWithHM(tab *stats.Table, rows []BenchRow, hm []float64) {
	for _, row := range rows {
		cells := []string{row.Bench}
		for _, v := range row.Values {
			cells = append(cells, stats.F3(v))
		}
		tab.AddRow(cells...)
	}
	cells := []string{"HM"}
	for _, v := range hm {
		cells = append(cells, stats.F3(v))
	}
	tab.AddRow(cells...)
}
