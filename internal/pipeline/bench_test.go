package pipeline

// Benchmarks for the cycle-model hot path. Every paper artifact is a
// full-matrix sweep over this loop, so ns/cycle and allocs/op here bound the
// wall-clock of the whole experiment harness. BenchmarkCycle times one
// cycle-loop step in isolation; BenchmarkRunProgram measures end-to-end
// simulation throughput per kernel and reports ns/cycle and sim-cycles/sec.
//
// These are for local before/after comparisons (`make bench` runs them).
// The repository's recorded benchmark is cmd/ctcpperf, which measures ns per
// committed instruction on every kernel.

import (
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/prog"
	"ctcp/internal/workload"
)

const benchInsts = 30_000

// benchKernels are the kernels `make bench` tracks: two pointer/branch-heavy
// integer codes, one cache-hostile pointer chaser, and one FP kernel.
var benchKernels = []string{"gzip", "mcf", "eon", "perlbmk"}

// benchStrategies are the four strategy families whose scheduling cost the
// bench artifact tracks (FriendlyMiddle and FDRTNoPin share the hot-path
// shape of Friendly and FDRT, so they add no information here).
var benchStrategies = []core.StrategyKind{core.Base, core.IssueTime, core.Friendly, core.FDRT}

// benchCycleLoop is the shared inner loop of the per-strategy cycle
// benchmarks: one runLoop iteration (step) per op, reconstructing the
// pipeline off the clock when the program drains.
func benchCycleLoop(b *testing.B, prog *isa.Program, cfg Config) {
	p := New(emu.New(prog), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.done() {
			b.StopTimer()
			p = New(emu.New(prog), cfg)
			b.StartTimer()
		}
		step(p)
	}
}

func BenchmarkCycle(b *testing.B) {
	bm, ok := workload.ByName("gzip")
	if !ok {
		b.Fatal("gzip kernel missing")
	}
	prog := bm.ProgramFor(200_000)
	for _, k := range benchStrategies {
		b.Run(k.String(), func(b *testing.B) {
			benchCycleLoop(b, prog, DefaultConfig().WithStrategy(k, false))
		})
	}
}

// wakeupProg builds a scheduling microkernel that isolates the wakeup/select
// machinery. serial chains every instruction on the previous one, so each
// cycle resolves exactly one RS entry (producer waiter list → readyAt →
// one mask bit) and the issue scan finds a single set bit. parallel emits
// independent instructions that all resolve at dispatch, so the scan walks
// dense ready words with TrailingZeros64. Fetch and memory behaviour are
// trivial in both, leaving wakeup and select as the dominant per-cycle work.
func wakeupProg(serial bool) *isa.Program {
	b := prog.New()
	b.Movi(isa.R(1), 8192)
	b.Movi(isa.R(2), 1)
	b.Label("loop")
	for i := 0; i < 24; i++ {
		if serial {
			b.Op3(isa.ADD, isa.R(3), isa.R(2), isa.R(3))
		} else {
			b.Op3(isa.ADD, isa.R(2), isa.R(2), isa.R(4+i))
		}
	}
	b.OpI(isa.SUB, isa.R(1), 1, isa.R(1))
	b.Branch(isa.BNE, isa.R(1), "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func BenchmarkWakeup(b *testing.B) {
	for _, sub := range []struct {
		name   string
		serial bool
	}{{"chain", true}, {"parallel", false}} {
		b.Run(sub.name, func(b *testing.B) {
			benchCycleLoop(b, wakeupProg(sub.serial), DefaultConfig().WithStrategy(core.FDRT, false))
		})
	}
}

func BenchmarkRunProgram(b *testing.B) {
	for _, name := range benchKernels {
		bm, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("%s kernel missing", name)
		}
		prog := bm.ProgramFor(benchInsts)
		cfg := DefaultConfig().WithStrategy(core.FDRT, false)
		cfg.MaxInsts = benchInsts
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles += RunProgram(prog, cfg).Cycles
			}
			if cycles == 0 {
				b.Fatal("simulation made no progress")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}
