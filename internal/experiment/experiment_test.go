package experiment

import (
	"strings"
	"testing"

	"ctcp/internal/workload"
)

// testRunner uses a small budget so the experiment matrix stays fast in CI.
func testRunner() *Runner { return NewRunner(Options{Budget: 30_000}) }

func TestRunnerCaches(t *testing.T) {
	r := testRunner()
	bm, _ := workload.ByName("gzip")
	a := r.Run(bm, "base", BaseConfig())
	b := r.Run(bm, "base", BaseConfig())
	if a != b {
		t.Error("Run did not cache")
	}
}

func TestRunnerBudgetRespected(t *testing.T) {
	r := testRunner()
	bm, _ := workload.ByName("gzip")
	s := r.Run(bm, "base", BaseConfig())
	if s.Retired != r.Budget() {
		t.Errorf("retired %d, want budget %d", s.Retired, r.Budget())
	}
}

func TestTable1ShapesAndRender(t *testing.T) {
	r := testRunner()
	res := table1(r)[0]
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Values[0] < 0.5 {
			t.Errorf("%s: %%TC %.2f implausibly low", row.Bench, row.Values[0])
		}
		if row.Values[1] < 3 || row.Values[1] > 16 {
			t.Errorf("%s: trace size %.2f out of range", row.Bench, row.Values[1])
		}
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "bzip2", "vpr", "Avg"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure4SumsToOne(t *testing.T) {
	r := testRunner()
	res := figure4(r)[0]
	for _, row := range res.Rows {
		sum := row.Values[0] + row.Values[1] + row.Values[2]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: critical sources sum to %.4f", row.Bench, sum)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	r := testRunner()
	res := table2(r)[0]
	// Values alternate measured and paper: crit fwd, paper, inter-trace, paper.
	for _, row := range res.Rows {
		if row.Values[0] <= 0 || row.Values[0] > 1 || row.Values[2] <= 0 || row.Values[2] > 1 {
			t.Errorf("%s: fractions out of range: %v", row.Bench, row.Values)
		}
		if row.Values[1] <= 0 || row.Values[3] <= 0 {
			t.Errorf("%s: paper reference values missing: %v", row.Bench, row.Values)
		}
	}
	if len(res.Rows) != 6 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestTable3HighRepeatRates(t *testing.T) {
	r := testRunner()
	res := table3(r)[0]
	for _, row := range res.Rows {
		// The paper's key observation: producers repeat for the overwhelming
		// majority of forwarded inputs (this justifies chain prediction).
		if row.Values[0] < 0.7 {
			t.Errorf("%s: RS1 repeat rate %.2f too low to support chaining", row.Bench, row.Values[0])
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	r := testRunner()
	res := figure5(r)[0]
	hm := res.Totals()
	noFwd, noCrit, noIntra, noInter, noRF := hm[0], hm[1], hm[2], hm[3], hm[4]
	if noFwd < 1.05 {
		t.Errorf("removing all forwarding latency speeds up only %.3f", noFwd)
	}
	if noCrit > noFwd+0.02 {
		t.Errorf("no-crit (%.3f) exceeds no-fwd (%.3f)", noCrit, noFwd)
	}
	// Most of the benefit comes from the critical input alone (paper: 37.2
	// of 41.8 points).
	if (noCrit - 1) < 0.6*(noFwd-1) {
		t.Errorf("critical-only benefit %.3f too small vs all-forwarding %.3f", noCrit, noFwd)
	}
	if noIntra < 1.0 || noInter < 1.0 {
		t.Errorf("partial removals slowed down: intra %.3f inter %.3f", noIntra, noInter)
	}
	// Register file latency must be essentially irrelevant (paper Fig. 5).
	if noRF < 0.99 || noRF > 1.05 {
		t.Errorf("RF latency removal speedup %.3f, want ~1.0", noRF)
	}
	_ = res.Render()
}

func TestFigure6Shape(t *testing.T) {
	r := testRunner()
	res := figure6(r)[0]
	hm := res.Totals()
	for i, v := range hm {
		if v < 0.85 || v > 1.6 {
			t.Errorf("strategy column %d HM %.3f implausible", i, v)
		}
	}
	fdrt := hm[2]
	if fdrt < 1.0 {
		t.Errorf("FDRT mean speedup %.3f below 1.0", fdrt)
	}
	_ = res.Render()
}

func TestTable8RetireTimeImprovesLocality(t *testing.T) {
	r := testRunner()
	secs := table8(r)
	if len(secs) != 2 {
		t.Fatalf("sections = %d, want 8a and 8b", len(secs))
	}
	avg := secs[0].Totals()
	base, friendly, fdrt := avg[0], avg[1], avg[2]
	if friendly <= base {
		t.Errorf("Friendly intra-cluster %.3f not above base %.3f", friendly, base)
	}
	if fdrt <= base {
		t.Errorf("FDRT intra-cluster %.3f not above base %.3f", fdrt, base)
	}
	for _, s := range secs {
		_ = s.Render()
	}
}

func TestFigure7OptionsSumToOne(t *testing.T) {
	r := testRunner()
	res := figure7(r)[0]
	for _, row := range res.Rows {
		sum := 0.0
		for k := 0; k < 5; k++ { // A..E (skipped overlaps A-D)
			sum += row.Values[k]
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: option fractions sum to %.4f", row.Bench, sum)
		}
	}
	_ = res.Render()
}

func TestTable9PinningReducesChainMigration(t *testing.T) {
	r := testRunner()
	res := table9(r)[0]
	reduced := 0
	for _, row := range res.Rows {
		if row.Values[3] > 0 {
			reduced++
		}
	}
	// The paper's central Table 9 claim: pinning reduces chain migration for
	// the large majority of programs (perlbmk is its own noted anomaly).
	if reduced < 4 {
		t.Errorf("pinning reduced chain migration for only %d/6 benchmarks", reduced)
	}
	_ = res.Render()
}

func TestTable10Render(t *testing.T) {
	r := testRunner()
	res := table10(r)[0]
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.Render()
	if !strings.Contains(out, "Pinning") {
		t.Error("render missing header")
	}
}

func TestFigure8VariantsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 8 sweeps 3 architectures")
	}
	r := testRunner()
	secs := figure8(r)
	if len(secs) != 3 {
		t.Fatalf("sections = %d, want ring, hop1 and 2x4", len(secs))
	}
	for _, s := range secs {
		if len(s.Rows) != 6 {
			t.Fatalf("%s: rows = %d", s.Title, len(s.Rows))
		}
		if hm := s.Totals(); hm[0] < 0.8 || hm[0] > 1.6 {
			t.Errorf("%s: FDRT HM %.3f implausible", s.Title, hm[0])
		}
		_ = s.Render()
	}
}

func TestFigure9SuitesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 9 sweeps all 26 benchmarks")
	}
	r := NewRunner(Options{Budget: 20_000})
	secs := figure9(r)
	if len(secs) != 2 {
		t.Fatalf("sections = %d, want SPECint2000 and MediaBench", len(secs))
	}
	for _, s := range secs {
		if len(s.Totals()) != 4 {
			t.Fatalf("%s: missing strategy means", s.Title)
		}
		if n := len(s.Rows); n != 12 && n != 14 {
			t.Errorf("%s: %d rows", s.Title, n)
		}
		_ = s.Render()
	}
}

func TestFig8VariantConfigs(t *testing.T) {
	ring := fig8Variant("ring")
	if ring.Geom.Topology.String() != "ring" {
		t.Error("ring variant wrong")
	}
	hop1 := fig8Variant("hop1")
	if hop1.Geom.HopLat != 1 {
		t.Error("hop1 variant wrong")
	}
	two := fig8Variant("2x4")
	if two.Geom.Clusters != 2 || two.FetchWidth != 8 || two.Trace.MaxLen != 8 {
		t.Error("2x4 variant wrong")
	}
	// The variants leave the baseline untouched.
	if BaseConfig().Geom.HopLat != 2 || BaseConfig().Geom.Clusters != 4 {
		t.Error("baseline mutated by variant construction")
	}
}

func TestStrategyConfigsComplete(t *testing.T) {
	cfgs := StrategyConfigs()
	for _, key := range []string{"base", "friendly", "fdrt", "fdrt-nopin", "issue0", "issue4"} {
		if _, ok := cfgs[key]; !ok {
			t.Errorf("missing strategy config %q", key)
		}
	}
	if cfgs["issue4"].SteerStages != 4 {
		t.Errorf("issue4 steer stages = %d", cfgs["issue4"].SteerStages)
	}
	if cfgs["issue0"].SteerStages != 0 {
		t.Errorf("issue0 steer stages = %d", cfgs["issue0"].SteerStages)
	}
}

func TestAblationRuns(t *testing.T) {
	r := testRunner()
	res := ablation(r)[0]
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	hm := res.Totals()
	if len(hm) != 5 {
		t.Fatalf("hm = %v", hm)
	}
	for i, v := range hm {
		if v < 0.8 || v > 1.5 {
			t.Errorf("variant %d HM %.3f implausible", i, v)
		}
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Error("render missing title")
	}
}

func TestSweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps run many configurations")
	}
	r := NewRunner(Options{Budget: 20_000})
	secs := sweeps(r)
	if len(secs) != 3 {
		t.Fatalf("sections = %d, want trace cache, ROB and hop latency", len(secs))
	}
	// Each row is one parameter point: base IPC, then FDRT speedup.
	tc, rob, hop := secs[0], secs[1].Rows, secs[2].Rows
	if len(hop) != 3 {
		t.Fatalf("hop sweep points = %d", len(hop))
	}
	// FDRT's value grows with hop cost: the speedup at 4-cycle hops must be
	// at least that at 1-cycle hops.
	if hop[2].Values[1] < hop[0].Values[1]-0.02 {
		t.Errorf("FDRT speedup not increasing with hop latency: %v", hop)
	}
	// A bigger window never reduces base IPC.
	if rob[2].Values[0] < rob[0].Values[0]-0.05 {
		t.Errorf("base IPC fell with larger ROB: %v", rob)
	}
	if !strings.Contains(tc.Render(), "trace-cache-lines") {
		t.Error("render missing param name")
	}
}
