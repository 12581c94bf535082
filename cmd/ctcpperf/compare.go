package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads the untraced run records a -json file accumulated.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// values collects one metric of one workload across records.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runCompare prints, per workload and end-to-end metric, each side's median
// and quartiles and B's change against A relative to A's median, and fails
// when B is worse than A by more than the metric's bound.
func runCompare(benchPath string, paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ctcpperf -compare a.json b.json")
		return 2
	}
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpperf: %v\n", err)
		return 2
	}
	var sides [2][]record
	for i, p := range paths {
		if sides[i], err = readRecords(p); err != nil {
			fmt.Fprintf(os.Stderr, "ctcpperf: %v\n", err)
			return 2
		}
	}
	seen := map[string]bool{}
	var workloads []string
	for _, recs := range sides {
		for _, r := range recs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				workloads = append(workloads, r.Workload)
			}
		}
	}
	sort.Strings(workloads)
	fmt.Printf("A = %s, B = %s; spread = (q3-q1)/median; change = (B-A)/A, + is worse\n", paths[0], paths[1])
	fmt.Printf("%-14s %-17s %-5s %4s %36s %4s %36s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "nA", "A median [q1, q3]", "nB", "B median [q1, q3]",
		"spreadA", "spreadB", "change", "bound", "status")
	bad := 0
	for _, wl := range workloads {
		for _, bm := range bf.EndToEnd {
			a, b := values(sides[0], wl, bm.Name), values(sides[1], wl, bm.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-14s %-17s missing on one side (A %d, B %d runs)\n", wl, bm.Name, len(a), len(b))
				bad++
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bmed, b3 := quartiles(b)
			change := ratio(bmed-am, am)
			worse := change
			if bm.Better == "higher" {
				worse = -change
			}
			status := "ok"
			if worse > bm.Bound {
				status = "REGRESSION"
				bad++
			}
			fmt.Printf("%-14s %-17s %-5s %4d %36s %4d %36s %7.2f%% %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl, bm.Name, bm.Unit, len(a), fmt.Sprintf("%.6g [%.6g, %.6g]", am, a1, a3),
				len(b), fmt.Sprintf("%.6g [%.6g, %.6g]", bmed, b1, b3),
				100*ratio(a3-a1, am), 100*ratio(b3-b1, bmed), 100*change, 100*bm.Bound, status)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric(s) outside their bound or missing\n", bad)
		return 1
	}
	fmt.Println("every metric within its bound")
	return 0
}
