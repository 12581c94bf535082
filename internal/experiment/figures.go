package experiment

import (
	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// figure6 reproduces Figure 6, speedup by cluster assignment strategy on
// the six selected benchmarks: No-lat issue-time, Issue-time(4), FDRT and
// Friendly against the baseline.
func figure6(r *Runner) []Section {
	s := Section{
		Title:   "Figure 6: Speedup Due to Cluster Assignment Strategy",
		Header:  []string{"bench", "No-lat Issue", "Issue-time", "FDRT", "Friendly"},
		Notes:   []string{"paper harmonic means: 1.172 / ~1.11 / 1.115 / 1.031"},
		Format:  repeat(stats.F3, 4),
		Summary: "HM",
	}
	cols := strategies("base", "issue0", "issue4", "fdrt", "friendly")
	runRows(r, workload.Selected(), cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s.Rows = append(s.Rows, BenchRow{bm.Name, speedups(ss)})
	})
	return []Section{s}
}

// table8 reproduces Table 8, critical-input forwarding locality for Base,
// Friendly and FDRT: the intra-cluster share (8a) and the mean forwarding
// distance (8b), both from one pass.
func table8(r *Runner) []Section {
	intra := Section{
		Title:   "Table 8a: Percentage of Intra-Cluster Forwarding (critical inputs)",
		Header:  []string{"bench", "Base", "Friendly", "FDRT"},
		Notes:   []string{"paper averages: 39.65% / 56.93% / 61.61%"},
		Format:  repeat(stats.Pct, 3),
		Summary: "Avg",
		Paper: map[string][]float64{
			"bzip2": {0.3978, 0.6084, 0.7954}, "eon": {0.3373, 0.5283, 0.5135},
			"gzip": {0.3294, 0.5391, 0.5825}, "perlbmk": {0.4495, 0.5836, 0.6201},
			"twolf": {0.4783, 0.5691, 0.5892}, "vpr": {0.3867, 0.5870, 0.5958},
		},
		PaperHeader: "paper(B/F/FDRT)",
	}
	dist := Section{
		Title:   "Table 8b: Average Data Forwarding Distance (hops)",
		Header:  []string{"bench", "Base", "Friendly", "FDRT"},
		Notes:   []string{"paper: FDRT reduces average distance ~40% below base and always below Friendly"},
		Format:  repeat(stats.F3, 3),
		Summary: "Avg",
	}
	cols := strategies("base", "friendly", "fdrt")
	runRows(r, workload.Selected(), cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
		var in, d []float64
		for _, st := range ss {
			in = append(in, st.IntraClusterFrac())
			d = append(d, st.AvgFwdDistance())
		}
		intra.Rows = append(intra.Rows, BenchRow{bm.Name, in})
		dist.Rows = append(dist.Rows, BenchRow{bm.Name, d})
	})
	return []Section{intra, dist}
}

// figure7 reproduces Figure 7, the distribution of FDRT options A-E (plus
// the skipped fraction).
func figure7(r *Runner) []Section {
	s := Section{
		Title:  "Figure 7: FDRT Critical Input Distribution (options of Table 5)",
		Header: []string{"bench", "A intra", "B chain", "C both", "D consumer", "E none", "skipped"},
		Notes: []string{
			"paper averages: A 37%, B 18%, C 9%, D 11%, E 24%, skipped <1%;",
			"loop-carried dependences make chains more common in the synthetic suite.",
		},
		Format:  repeat(stats.Pct, 6),
		Summary: "Avg",
	}
	runRows(r, workload.Selected(), strategies("fdrt"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		f := ss[0].Fill
		// Guard the denominator while it is still an integer; comparing the
		// float64 against zero exactly is a floateq trap.
		n := f.OptionA + f.OptionB + f.OptionC + f.OptionD + f.OptionE
		if n == 0 {
			n = 1
		}
		tot := float64(n)
		s.Rows = append(s.Rows, BenchRow{bm.Name, []float64{
			float64(f.OptionA) / tot, float64(f.OptionB) / tot, float64(f.OptionC) / tot,
			float64(f.OptionD) / tot, float64(f.OptionE) / tot, float64(f.Skipped) / tot,
		}})
	})
	return []Section{s}
}

// table9 reproduces Table 9, instruction cluster migration under FDRT and
// FDRT-NoPin: both migration rates, then pinning's reduction of all and of
// chain migration.
func table9(r *Runner) []Section {
	s := Section{
		Title:   "Table 9: Instruction Cluster Migration",
		Header:  []string{"bench", "Pinning", "No Pinning", "All reduction", "Chain reduction"},
		Notes:   []string{"paper averages: 4.25% / 5.80% / 27.71% / 40.98%"},
		Format:  repeat(stats.Pct, 4),
		Summary: "Avg",
		Paper: map[string][]float64{
			"bzip2": {0.0035, 0.0098}, "eon": {0.0594, 0.0827}, "gzip": {0.0597, 0.0826},
			"perlbmk": {0.0377, 0.0359}, "twolf": {0.0508, 0.0892}, "vpr": {0.0436, 0.0477},
		},
		PaperHeader: "paper(P/NP)",
	}
	runRows(r, workload.Selected(), strategies("fdrt", "fdrt-nopin"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		pin, nop := ss[0].Fill, ss[1].Fill
		allRed, chainRed := 0.0, 0.0
		if nop.MigrationRate() > 0 {
			allRed = 1 - pin.MigrationRate()/nop.MigrationRate()
		}
		if nop.ChainMigrationRate() > 0 {
			chainRed = 1 - pin.ChainMigrationRate()/nop.ChainMigrationRate()
		}
		s.Rows = append(s.Rows, BenchRow{bm.Name, []float64{
			pin.MigrationRate(), nop.MigrationRate(), allRed, chainRed,
		}})
	})
	return []Section{s}
}

// table10 reproduces Table 10, intra-cluster critical forwarding with and
// without pinning.
func table10(r *Runner) []Section {
	s := Section{
		Title:   "Table 10: Intra-Cluster Critical Data Forwarding vs. Pinning",
		Header:  []string{"bench", "With Pinning", "No Pinning"},
		Notes:   []string{"paper averages: 60.51% / 58.57%"},
		Format:  repeat(stats.Pct, 2),
		Summary: "Avg",
		Paper: map[string][]float64{
			"bzip2": {0.7747, 0.6669}, "eon": {0.4972, 0.5088}, "gzip": {0.5603, 0.5503},
			"perlbmk": {0.6532, 0.6536}, "twolf": {0.5751, 0.5713}, "vpr": {0.5701, 0.5634},
		},
		PaperHeader: "paper(P/NP)",
	}
	runRows(r, workload.Selected(), strategies("fdrt", "fdrt-nopin"), func(bm workload.Benchmark, ss []*pipeline.Stats) {
		s.Rows = append(s.Rows, BenchRow{bm.Name,
			[]float64{ss[0].IntraClusterFrac(), ss[1].IntraClusterFrac()}})
	})
	return []Section{s}
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

// figure8 reproduces Figure 8, strategy speedups under alternate cluster
// configurations, each relative to its own baseline: one section per
// variant of FDRT, Friendly and IssueTime speedups.
func figure8(r *Runner) []Section {
	var secs []Section
	for _, v := range []struct{ name, title string }{
		{"ring", "Mesh (ring) interconnect"},
		{"hop1", "One-cycle forwarding hop"},
		{"2x4", "Eight-wide, two clusters"},
	} {
		base := fig8Variant(v.name)
		cols := []column{
			{v.name + "/base", base},
			{v.name + "/fdrt", base.WithStrategy(core.FDRT, false)},
			{v.name + "/friendly", base.WithStrategy(core.Friendly, false)},
			{v.name + "/issue", base.WithStrategy(core.IssueTime, false)},
		}
		s := Section{
			Title:   "Figure 8 (" + v.title + "): speedup over this configuration's base",
			Header:  []string{"bench", "FDRT", "Friendly", "Issue-time"},
			Format:  repeat(stats.F3, 3),
			Summary: "HM",
		}
		runRows(r, workload.Selected(), cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
			s.Rows = append(s.Rows, BenchRow{bm.Name, speedups(ss)})
		})
		secs = append(secs, s)
	}
	return secs
}

// figure9 reproduces Figure 9, suite-wide speedups: No-lat issue,
// Issue-time, FDRT and Friendly on every SPECint2000 and MediaBench
// program, one section per suite.
func figure9(r *Runner) []Section {
	cols := strategies("base", "issue0", "issue4", "fdrt", "friendly")
	var secs []Section
	// Suite order decides run submission, so it is a slice, not a map.
	for _, suite := range []struct {
		name string
		bms  []workload.Benchmark
		note string
	}{
		{"SPECint2000", workload.SPECint(), "paper harmonic means: n/a / 1.038 / 1.071 / 1.019"},
		{"MediaBench", workload.MediaBench(), "paper harmonic means: 1.042 / 1.017 / 1.082 / 1.037"},
	} {
		s := Section{
			Title:   "Figure 9 (" + suite.name + "): speedup over base",
			Header:  []string{"bench", "No-lat Issue", "Issue-time", "FDRT", "Friendly"},
			Notes:   []string{suite.note},
			Format:  repeat(stats.F3, 4),
			Summary: "HM",
		}
		runRows(r, suite.bms, cols, func(bm workload.Benchmark, ss []*pipeline.Stats) {
			s.Rows = append(s.Rows, BenchRow{bm.Name, speedups(ss)})
		})
		secs = append(secs, s)
	}
	return secs
}
