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
// steering, which dispatches without the steering window.
func allocCases() []allocCase {
	var out []allocCase
	for _, k := range core.Strategies() {
		out = append(out, allocCase{k.String(), DefaultConfig().WithStrategy(k, false)})
	}
	return append(out, allocCase{"issue-time-ideal", DefaultConfig().WithStrategy(core.IssueTime, true)})
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
// with run length.
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
				for i := 0; i < warmCycles && !p.done(); i++ {
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

// step advances the model by one iteration of runLoop: one cycle, or after
// an idle cycle a jump to nextEvent with the skipped cycles charged to the
// stalls the idle cycle saw. It omits only the no-progress watchdog.
func step(p *Pipeline) {
	if p.cycle() {
		p.now++
	} else {
		next := p.nextEvent()
		p.chargeSkipped(next - p.now - 1)
		p.now = next
	}
}
