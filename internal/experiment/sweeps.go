package experiment

import (
	"fmt"

	"ctcp/internal/core"
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// SweepResult holds one structural-parameter sweep: for each parameter value,
// the harmonic-mean base IPC and FDRT speedup over that point's own base,
// across the six selected benchmarks.
type SweepResult struct {
	Param  string
	Points []SweepPoint
}

// SweepPoint is one parameter setting's aggregate result.
type SweepPoint struct {
	Label       string
	BaseIPC     float64 // mean base IPC
	FDRTSpeedup float64 // HM speedup of FDRT over base at this point
}

// sweep evaluates FDRT against base across parameter points.
func sweep(r *Runner, param string, points []struct {
	label string
	mod   func(*pipeline.Config)
}) *SweepResult {
	res := &SweepResult{Param: param}
	for _, pt := range points {
		base := BaseConfig()
		pt.mod(&base)
		fdrt := base.WithStrategy(core.FDRT, false)
		cols := []column{
			{fmt.Sprintf("sweep/%s/%s/base", param, pt.label), base},
			{fmt.Sprintf("sweep/%s/%s/fdrt", param, pt.label), fdrt},
		}
		var ipcs, speeds []float64
		runRows(r, workload.Selected(), cols, func(_ workload.Benchmark, ss []*pipeline.Stats) {
			ipcs = append(ipcs, ss[0].IPC())
			speeds = append(speeds, speedup(ss[0], ss[1]))
		})
		res.Points = append(res.Points, SweepPoint{
			Label:       pt.label,
			BaseIPC:     stats.Mean(ipcs),
			FDRTSpeedup: stats.HarmonicMean(speeds),
		})
	}
	return res
}

// SweepTraceCache varies the trace cache capacity (the paper's 1K-entry
// design point in context): a smaller cache loses chain profile bits with
// the evicted lines, weakening the feedback loop.
func SweepTraceCache(r *Runner) *SweepResult {
	return sweep(r, "trace-cache-lines", []struct {
		label string
		mod   func(*pipeline.Config)
	}{
		{"128", func(c *pipeline.Config) { c.Trace.Lines = 128 }},
		{"512", func(c *pipeline.Config) { c.Trace.Lines = 512 }},
		{"1024", func(c *pipeline.Config) { c.Trace.Lines = 1024 }},
		{"4096", func(c *pipeline.Config) { c.Trace.Lines = 4096 }},
	})
}

// SweepROB varies the instruction window (Table 7: 128 entries).
func SweepROB(r *Runner) *SweepResult {
	return sweep(r, "rob-entries", []struct {
		label string
		mod   func(*pipeline.Config)
	}{
		{"64", func(c *pipeline.Config) { c.ROBSize = 64 }},
		{"128", func(c *pipeline.Config) { c.ROBSize = 128 }},
		{"256", func(c *pipeline.Config) { c.ROBSize = 256 }},
	})
}

// SweepHopLatency varies the inter-cluster forwarding cost (Table 7:
// 2 cycles/hop): assignment matters more as hops get more expensive.
func SweepHopLatency(r *Runner) *SweepResult {
	return sweep(r, "hop-latency", []struct {
		label string
		mod   func(*pipeline.Config)
	}{
		{"1", func(c *pipeline.Config) { c.Geom.HopLat = 1 }},
		{"2", func(c *pipeline.Config) { c.Geom.HopLat = 2 }},
		{"4", func(c *pipeline.Config) { c.Geom.HopLat = 4 }},
	})
}

// Render formats the sweep.
func (s *SweepResult) Render() string {
	tab := &stats.Table{
		Title:  "Sweep: " + s.Param + " (six selected benchmarks)",
		Header: []string{s.Param, "base IPC", "FDRT speedup"},
	}
	for _, p := range s.Points {
		tab.AddRow(p.Label, stats.F3(p.BaseIPC), stats.F3(p.FDRTSpeedup))
	}
	return tab.Render()
}
