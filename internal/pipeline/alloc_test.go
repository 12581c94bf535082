package pipeline

// Zero-allocation regression tests for the cycle-model hot path. The hotalloc
// lint rule pins the property structurally (no allocating constructs reachable
// from //ctcp:hotpath); these tests pin it dynamically: after warm-up, whole
// simulated cycles must perform no heap allocation at all. Together they catch
// both what the analyzer models and what it cannot (e.g. allocations inside
// cross-package callees).

import (
	"runtime"
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/workload"
)

// allocCase is one configuration the zero-allocation tests cover.
type allocCase struct {
	name string
	cfg  Config
}

// allocCases covers every strategy, plus ideal (0-cycle) issue-time
// steering, which dispatches without the steering window, plus FDRT under
// each Figure 5 forwarding knob, the only configurations that reach effFwd's
// and resolve's knob branches, plus FDRT and issue-time steering on a small
// window (ROB 8, two-wide fetch and retire) whose 16-slot trace-cache groups
// are far longer than its fetch width, the case that sizes the in-flight
// ring by Trace.MaxLen.
func allocCases() []allocCase {
	var out []allocCase
	for _, k := range core.Strategies() {
		out = append(out, allocCase{k.String(), DefaultConfig().WithStrategy(k, false)})
	}
	out = append(out, allocCase{"issue-time-ideal", DefaultConfig().WithStrategy(core.IssueTime, true)})
	for _, knob := range []struct {
		name string
		set  func(*Config)
	}{
		{"zero-all-fwd-lat", func(c *Config) { c.ZeroAllFwdLat = true }},
		{"zero-crit-fwd-lat", func(c *Config) { c.ZeroCritFwdLat = true }},
		{"zero-intra-trace", func(c *Config) { c.ZeroIntraTrace = true }},
		{"zero-inter-trace", func(c *Config) { c.ZeroInterTrace = true }},
	} {
		cfg := DefaultConfig().WithStrategy(core.FDRT, false)
		knob.set(&cfg)
		out = append(out, allocCase{knob.name, cfg})
	}
	for _, k := range []core.StrategyKind{core.FDRT, core.IssueTime} {
		cfg := DefaultConfig().WithStrategy(k, false)
		cfg.ROBSize, cfg.FetchWidth, cfg.RetireWidth = 8, 2, 2
		out = append(out, allocCase{k.String() + "-rob8-fetch2", cfg})
	}
	return out
}

func TestCycleLoopZeroAlloc(t *testing.T) {
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip kernel missing")
	}
	prog := bm.ProgramFor(500_000)
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			p := New(emu.New(prog), c.cfg)

			// Warm up past pool ramp-up, per-PC table growth and trace-cache
			// fill: their amortized allocations are allowed here.
			for i := 0; i < 20_000 && !p.done(); i++ {
				step(p)
			}
			if p.done() {
				t.Fatal("stream exhausted during warm-up; enlarge the program")
			}

			const cyclesPerRun = 200
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < cyclesPerRun && !p.done(); i++ {
					step(p)
				}
			})
			if p.done() {
				t.Fatal("stream exhausted during measurement; enlarge the program")
			}
			if allocs != 0 {
				t.Fatalf("steady-state cycle loop allocated: %.1f allocs per %d cycles (want 0)", allocs, cyclesPerRun)
			}
		})
	}
}

// TestCycleLoopBytesWindow is the amortized half of the zero-allocation
// rule. AllocsPerRun divides its malloc count by the run count in integer
// arithmetic, so a slice that doubles every few thousand cycles averages to
// zero there; over a window of windowCycles after warm-up, a leak of that
// kind costs hundreds of kilobytes. The bound leaves room for the rare
// first touch of a new static PC or data page, not for growth that scales
// with run length. The warm-up is warmCycles at the default fetch width and
// proportionally longer for a narrower front end, which needs more cycles
// to fill the trace cache and the per-PC tables.
func TestCycleLoopBytesWindow(t *testing.T) {
	const (
		warmCycles   = 20_000
		windowCycles = 100_000
		maxBytes     = 32 << 10
	)
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, name := range []string{"gzip", "gcc", "vortex"} {
				bm, ok := workload.ByName(name)
				if !ok {
					t.Fatalf("%s kernel missing", name)
				}
				p := New(emu.New(bm.ProgramFor(2_000_000)), c.cfg)
				warm := warmCycles * DefaultConfig().FetchWidth / c.cfg.FetchWidth
				for i := 0; i < warm && !p.done(); i++ {
					step(p)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < windowCycles && !p.done(); i++ {
					step(p)
				}
				runtime.ReadMemStats(&after)
				if p.done() {
					t.Fatalf("%s: stream exhausted before the window ended; enlarge the program", name)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
					t.Errorf("%s: %d cycles after warm-up allocated %d bytes (bound %d)", name, windowCycles, got, maxBytes)
				} else {
					t.Logf("%s: %d cycles after warm-up allocated %d bytes", name, windowCycles, got)
				}
			}
		})
	}
}

// step advances the model by one iteration of runLoop: one cycle. It omits
// only the no-progress watchdog.
func step(p *Pipeline) {
	p.cycle()
	p.now++
}
