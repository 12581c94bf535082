package pipeline

// Zero-allocation regression test for the cycle-model hot path. The hotalloc
// lint rule pins the property structurally (no allocating constructs reachable
// from //ctcp:hotpath); this test pins it dynamically: after warm-up, whole
// simulated cycles must perform no heap allocation at all. Together they catch
// both what the analyzer models and what it cannot (e.g. allocations inside
// cross-package callees).

import (
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/workload"
)

func TestCycleLoopZeroAlloc(t *testing.T) {
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip kernel missing")
	}
	prog := bm.ProgramFor(500_000)
	cfg := DefaultConfig().WithStrategy(core.FDRT, false)
	p := New(emu.New(prog), cfg)

	// Warm up past pool ramp-up, per-PC table growth and trace-cache fill:
	// their amortized allocations are allowed here.
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
}

// step advances the model exactly as Run does, minus the no-progress
// watchdog.
func step(p *Pipeline) {
	if p.cycle() {
		p.now++
	} else {
		p.now = p.nextEvent()
	}
}
