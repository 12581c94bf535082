package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ctcp/internal/core"
)

// TestMain lets the set-up probes of the smoke runs re-execute the test
// binary, the way the benchmark re-executes itself.
func TestMain(m *testing.M) {
	if js := os.Getenv(probeEnv); js != "" {
		os.Exit(runProbe(js))
	}
	os.Exit(m.Run())
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 100, want: 90, ok: true},  // 10 samples (91..100) beyond
		{n: 99, want: 90, ok: false},  // only 9 beyond
		{n: 410, want: 369, ok: true}, // the artifacts workload's count
		{n: 0, ok: false},
	} {
		got, ok := percentile(seq(tc.n), 90)
		if ok != tc.ok || (tc.n > 0 && got != tc.want) {
			t.Errorf("p90 of 1..%d = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if _, err := latencySummary(seq(99)); err == nil {
		t.Error("latencySummary accepted a p90 with 9 samples beyond it")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, [3]float64{2, 5, 8}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
}

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: union 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent: 90..100
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 20},
		{ID: 6, Parent: 3, Name: "b.inner", Start: 30, End: 60}, // covers b entirely
	}
	want := map[int]int64{1: 40, 2: 25, 3: 0, 4: 30, 5: 5, 6: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	if tot := totalsByName(spans)["parent"]; tot.Count != 1 || tot.Ns != 100 || tot.Self != 40 {
		t.Errorf("parent totals = %+v", *tot)
	}
}

func TestYardstickScale(t *testing.T) {
	if got := scale(yardstickNominalNs, yardstickNominalNs); got != 1 {
		t.Errorf("scale at nominal speed = %v, want 1", got)
	}
	if got := scale(yardstickNominalNs, 3*yardstickNominalNs); got != 0.5 {
		t.Errorf("scale between passes at 1x and 3x nominal = %v, want 0.5", got)
	}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	n := yardstickNominalNs
	s := &yardstickSampler{at: []time.Time{at(100), at(200), at(300), at(400)}, ns: []float64{n, 2 * n, 4 * n, 2 * n}}
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{150, 450, 0.5},     // the median of the passes inside: 2n
		{210, 290, 1.0 / 3}, // none inside: the mean of the passes around it, 3n
		{0, 50, 1},          // before the first pass: that pass
		{450, 500, 0.5},     // after the last pass: that pass
	} {
		if got := s.scaleOver(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scaleOver(%d..%d ms) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if got := (&yardstickSampler{}).scaleOver(t0, at(1)); got != 1 {
		t.Errorf("scaleOver without passes = %v, want 1", got)
	}
}

func TestYardstickSamplerHalts(t *testing.T) {
	s := sampleYardstick(newYardstick(), time.Millisecond)
	s.halt()
	s.halt() // a second halt returns too
	if len(s.at) != len(s.ns) {
		t.Errorf("%d pass times for %d passes", len(s.at), len(s.ns))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	tr.end(0)
}

func TestMetricNamesAndBenchmarkJSONMatchCode(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(block string, got []boundedMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s lists %d metrics, the code reports %d", block, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %s (%s), code reports %s (%s)", block, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
			if !metricName.MatchString(want[i].Name) {
				t.Errorf("metric name %q does not match %s", want[i].Name, metricName)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, bad := range []string{"", "a b", "ns/inst", "x:y"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ctcp/internal/pipeline.(*Pipeline).cycle": "pipeline",
		"ctcp/internal/core.(*FillUnit).assign":    "core",
		"ctcp/internal/emu.(*Machine).NextInto":    "emu",
		"runtime.mallocgc":                         "go.runtime",
		"sort.Slice":                               "other",
		"main.main":                                "other",
		"ctcp/internal/x.F[ctcp/internal/y.T]":     "x",
		"":                                         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var heapSink []byte

func TestParseHeapProfile(t *testing.T) {
	heapSink = make([]byte, 8<<20) // sampled with certainty at the default rate
	runtime.GC()                   // the profile reports allocations as of the last completed cycle
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total, err := p.total("alloc_space"); err != nil || total <= 0 {
		t.Fatalf("alloc_space total = %d, %v", total, err)
	}
	if _, err := splitCPU(p); err == nil {
		t.Error("a heap profile split as a CPU profile")
	}
}

func TestUnifiedDiff(t *testing.T) {
	a := strings.Split("1\n2\n3\n4\n5\n6\n7\n8\n9", "\n")
	b := append([]string(nil), a...)
	b[4] = "five"
	got := unifiedDiff("want", "got", a, b)
	want := "--- want\n+++ got\n@@ -2,7 +2,7 @@\n 2\n 3\n 4\n-5\n+five\n 6\n 7\n 8\n"
	if got != want {
		t.Errorf("diff:\n%s\nwant:\n%s", got, want)
	}
}

func TestCompareFlagsRegressionsOnly(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals ...float64) string {
		var buf bytes.Buffer
		for _, v := range vals {
			line, err := json.Marshal(record{Workload: "w", Metrics: []metric{{Name: "wall_s", Value: v, Unit: "s"}}})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 10, 10.1, 9.9)
	if code := runCompare(bench, []string{base, write("same.jsonl", 10.2, 10, 9.95)}); code != 0 {
		t.Errorf("agreeing sets: exit %d", code)
	}
	if code := runCompare(bench, []string{base, write("faster.jsonl", 7, 7.1, 6.9)}); code != 0 {
		t.Errorf("faster set: exit %d", code)
	}
	if code := runCompare(bench, []string{base, write("slower.jsonl", 12, 12.1, 11.9)}); code != 1 {
		t.Errorf("20%% slower set: exit %d, want 1", code)
	}
}

// smokeSpec is an in-process workload cut down to two kernels x 5k
// instructions.
func smokeSpec(sampled bool) spec {
	return spec{Kernels: []string{"gzip", "mcf"}, Insts: 5000, Strategy: core.FDRT, Sampled: sampled}
}

// TestSmokeInprocWorkloads runs the whole measurement path of both
// in-process workload kinds. The untraced path (set-up probes, rounds until
// the faster half holds minRuns samples, end-to-end metrics) is shared by
// both kinds, so it runs for the detailed kind only: 200 sampled runs cost
// ~10 s even at 5k instructions, since each makes 40 cold pipelines.
func TestSmokeInprocWorkloads(t *testing.T) {
	rec := &record{Seed: 7}
	if err := measureInproc(rec, smokeSpec(false), 0, nil, 1); err != nil {
		t.Fatalf("untraced: %v", err)
	}
	if len(rec.Problems) != 0 || rec.Failed != 0 || rec.Attempted < minRuns {
		t.Fatalf("untraced: %d/%d failed, problems %v", rec.Failed, rec.Attempted, rec.Problems)
	}
	assertMetrics(t, rec.Metrics, endToEnd)

	for _, sampled := range []bool{false, true} {
		rec := &record{Seed: 7, Traced: true}
		if err := measureInproc(rec, smokeSpec(sampled), 0, newTracer(), 0); err != nil {
			t.Fatalf("sampled=%v traced: %v", sampled, err)
		}
		if len(rec.Problems) != 0 {
			t.Fatalf("sampled=%v traced: fidelity checks failed: %v", sampled, rec.Problems)
		}
		assertMetrics(t, rec.Metrics, perLayer)
		want := []metric{{Name: "trace_overhead_frac"}, {Name: "emu.ns_per_inst"}, {Name: "pipeline.run_ns_per_inst"}}
		if sampled {
			want = append(want, metric{Name: "snap.encode_us"}, metric{Name: "sample.forward_frac"})
		} else {
			want = append(want, metric{Name: "core.retire_ns_per_inst"}, metric{Name: "pipeline.self_ns_per_inst"})
		}
		assertMetrics(t, rec.Metrics, want)
	}
}

// assertMetrics checks that every wanted metric is present with a
// well-formed name; timings must be positive.
func assertMetrics(t *testing.T, got []metric, want []metric) {
	t.Helper()
	byName := map[string]metric{}
	for _, m := range got {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
		byName[m.Name] = m
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case (m.Unit == "s" || m.Unit == "ns" && !strings.Contains(m.Name, "cpu")) && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", w.Name, m.Value)
		}
	}
}
