package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metric is one reported number. Base, when set, names the count a ratio
// or mean was taken over ("1080 requests"), so every ratio carries its base.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base,omitempty"`
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// endToEnd lists the metrics an untraced run reports on every workload, in
// print order, with their units. BENCHMARK.json's end_to_end block must
// name exactly these (TestMetricNamesAndBenchmarkJSONMatchCode).
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "ns_per_inst_p50", Unit: "ns"},
	{Name: "ns_per_inst_p90", Unit: "ns"},
	{Name: "mean_rss_mb", Unit: "MB"},
	{Name: "alloc_kb_per_run", Unit: "KB"},
}

// perLayer lists the layer metrics a traced run reports on every workload:
// host CPU time per instruction by layer, attributed from a CPU profile, and
// the garbage collector's share. BENCHMARK.json's per_layer block must name
// exactly these. The workload-specific span ledger rows are printed and
// written to -json alongside them.
var perLayer = []metric{
	{Name: "emu.cpu_ns_per_inst", Unit: "ns"},
	{Name: "trace.cpu_ns_per_inst", Unit: "ns"},
	{Name: "core.cpu_ns_per_inst", Unit: "ns"},
	{Name: "pipeline.cpu_ns_per_inst", Unit: "ns"},
	{Name: "cluster.cpu_ns_per_inst", Unit: "ns"},
	{Name: "bpred.cpu_ns_per_inst", Unit: "ns"},
	{Name: "cachesim.cpu_ns_per_inst", Unit: "ns"},
	{Name: "go.runtime_cpu_ns_per_inst", Unit: "ns"},
	{Name: "go.gc_cpu_frac", Unit: "ratio"},
}

// minTail is how many samples must lie beyond a reported high percentile.
const minTail = 10

// percentile returns the nearest-rank pct-th percentile of sorted samples and
// whether at least minTail samples lie beyond it. Integer rank arithmetic
// keeps p90 of 100 samples at rank 90 exactly.
func percentile(sorted []float64, pct int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (pct*n + 99) / 100 // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minTail
}

// fasterHalf returns the smaller half of xs, rounded up, sorted.
func fasterHalf(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[:(len(s)+1)/2]
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does with its default "exclusive" method,
// so spreads computed here match the ones the acceptance rule uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	var cut [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		cut[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2]
}

// latencySummary turns per-run ns/inst samples into the p50 and p90 metrics,
// refusing a p90 that fewer than minTail samples lie beyond.
func latencySummary(samples []float64) ([]metric, error) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	p90, ok := percentile(sorted, 90)
	if !ok {
		return nil, fmt.Errorf("p90 of %d runs leaves fewer than %d samples beyond it", len(sorted), minTail)
	}
	base := fmt.Sprintf("%d runs", len(sorted))
	return []metric{
		{Name: "ns_per_inst_p50", Value: median(sorted), Unit: "ns", Base: base},
		{Name: "ns_per_inst_p90", Value: p90, Unit: "ns", Base: base},
	}, nil
}

// ratio returns num/den, or 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
