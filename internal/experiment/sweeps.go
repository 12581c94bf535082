package experiment

import (
	"fmt"

	"ctcp/internal/core"
	"ctcp/internal/pipeline"
	"ctcp/internal/stats"
	"ctcp/internal/workload"
)

// sweeps evaluates FDRT against base while one structural parameter varies,
// one section per parameter. Each row is one parameter point: the mean base
// IPC and FDRT's harmonic-mean speedup over that point's own base, across
// the six selected benchmarks.
func sweeps(r *Runner) []Section {
	type point struct {
		label string
		mod   func(*pipeline.Config)
	}
	var secs []Section
	for _, param := range []struct {
		name   string
		points []point
	}{
		// The trace cache capacity (the paper's 1K-entry design point in
		// context): a smaller cache loses chain profile bits with the
		// evicted lines, weakening the feedback loop.
		{"trace-cache-lines", []point{
			{"128", func(c *pipeline.Config) { c.Trace.Lines = 128 }},
			{"512", func(c *pipeline.Config) { c.Trace.Lines = 512 }},
			{"1024", func(c *pipeline.Config) { c.Trace.Lines = 1024 }},
			{"4096", func(c *pipeline.Config) { c.Trace.Lines = 4096 }},
		}},
		// The instruction window (Table 7: 128 entries).
		{"rob-entries", []point{
			{"64", func(c *pipeline.Config) { c.ROBSize = 64 }},
			{"128", func(c *pipeline.Config) { c.ROBSize = 128 }},
			{"256", func(c *pipeline.Config) { c.ROBSize = 256 }},
		}},
		// The inter-cluster forwarding cost (Table 7: 2 cycles/hop):
		// assignment matters more as hops get more expensive.
		{"hop-latency", []point{
			{"1", func(c *pipeline.Config) { c.Geom.HopLat = 1 }},
			{"2", func(c *pipeline.Config) { c.Geom.HopLat = 2 }},
			{"4", func(c *pipeline.Config) { c.Geom.HopLat = 4 }},
		}},
	} {
		s := Section{
			Title:  "Sweep: " + param.name + " (six selected benchmarks)",
			Header: []string{param.name, "base IPC", "FDRT speedup"},
			Format: repeat(stats.F3, 2),
		}
		for _, pt := range param.points {
			base := BaseConfig()
			pt.mod(&base)
			cols := []column{
				{fmt.Sprintf("sweep/%s/%s/base", param.name, pt.label), base},
				{fmt.Sprintf("sweep/%s/%s/fdrt", param.name, pt.label), base.WithStrategy(core.FDRT, false)},
			}
			var ipcs, speeds []float64
			runRows(r, workload.Selected(), cols, func(_ workload.Benchmark, ss []*pipeline.Stats) {
				ipcs = append(ipcs, ss[0].IPC())
				speeds = append(speeds, speedup(ss[0], ss[1]))
			})
			s.Rows = append(s.Rows, BenchRow{pt.label,
				[]float64{stats.Mean(ipcs), stats.HarmonicMean(speeds)}})
		}
		secs = append(secs, s)
	}
	return secs
}
