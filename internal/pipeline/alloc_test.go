package pipeline

// Allocation regression tests for the cycle loop: after warm-up, whole
// simulated cycles must perform no heap allocation, in this package or in
// any package it calls into (caches, predictor, fill unit, per-PC tables).
// They are the only gate on that rule. Their programs and configurations
// are chosen by coverage: together they execute every statement cycle()
// reaches in this package except the five invariant panics DESIGN.md §9
// lists, whose conditions the model's invariants rule out.

import (
	"runtime"
	"testing"

	"ctcp/internal/asm"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/workload"
)

// allocCase is one configuration the allocation tests cover.
type allocCase struct {
	name string
	cfg  Config
	// viaStream feeds the machine through an emu.LimitStream, as the
	// checkpointed runner does, so refill reads it through the Stream
	// interface instead of calling the machine directly.
	viaStream bool
}

// allocCases covers every strategy, plus ideal (0-cycle) issue-time
// steering, which dispatches without the steering window, plus FDRT under
// each Figure 5 forwarding knob, the only configurations that reach effFwd's
// and resolve's knob branches, plus FDRT and issue-time steering on a small
// window (ROB 8, two-wide fetch and retire) whose 16-slot trace-cache groups
// are far longer than its fetch width, the case that sizes the in-flight
// ring by Trace.MaxLen. The last four FDRT cases reach what no other
// configuration does after warm-up: a two-cycle rename, after which
// dispatch finds its queue head not yet ready; a RetireHook, which retire
// calls per instruction; tiny trace cache, icache, BTB, L1D, store buffer
// and MSHR file, which keep icache misses, BTB misses, store-buffer-full
// stalls and MSHR-full retries recurring; and a stream read through the
// Stream interface.
func allocCases() []allocCase {
	var out []allocCase
	for _, k := range core.Strategies() {
		out = append(out, allocCase{name: k.String(), cfg: DefaultConfig().WithStrategy(k, false)})
	}
	out = append(out, allocCase{name: "issue-time-ideal", cfg: DefaultConfig().WithStrategy(core.IssueTime, true)})
	fdrt := func(name string, set func(*Config)) allocCase {
		cfg := DefaultConfig().WithStrategy(core.FDRT, false)
		set(&cfg)
		return allocCase{name: name, cfg: cfg}
	}
	out = append(out,
		fdrt("zero-all-fwd-lat", func(c *Config) { c.ZeroAllFwdLat = true }),
		fdrt("zero-crit-fwd-lat", func(c *Config) { c.ZeroCritFwdLat = true }),
		fdrt("zero-intra-trace", func(c *Config) { c.ZeroIntraTrace = true }),
		fdrt("zero-inter-trace", func(c *Config) { c.ZeroInterTrace = true }),
	)
	for _, k := range []core.StrategyKind{core.FDRT, core.IssueTime} {
		cfg := DefaultConfig().WithStrategy(k, false)
		cfg.ROBSize, cfg.FetchWidth, cfg.RetireWidth = 8, 2, 2
		out = append(out, allocCase{name: k.String() + "-rob8-fetch2", cfg: cfg})
	}
	return append(out,
		fdrt("fdrt-rename2", func(c *Config) { c.RenameStages = 2 }),
		fdrt("fdrt-retire-hook", func(c *Config) { c.RetireHook = func(core.RetireInfo) {} }),
		fdrt("fdrt-small", func(c *Config) {
			c.Trace.Lines = 16
			c.ICache.Sets, c.ICache.Ways = 1, 2
			c.BP.BTBEntries, c.BP.BTBWays = 4, 1
			c.StoreBuffer = 2
			c.Mem.L1.Sets, c.Mem.MSHRs = 1, 1
		}),
		allocCase{name: "fdrt-stream", cfg: DefaultConfig().WithStrategy(core.FDRT, false), viaStream: true},
	)
}

// newPipeline builds c's pipeline over a fresh machine running prog.
func (c allocCase) newPipeline(prog *isa.Program) *Pipeline {
	var s emu.Stream = emu.New(prog)
	if c.viaStream {
		s = &emu.LimitStream{S: s}
	}
	return New(s, c.cfg)
}

// callsSrc is the one program the allocation tests run that is not a
// kernel. Its sum recurses deeper than the 16-entry return address stack,
// so each outermost return pops a lapped entry and mispredicts, which no
// kernel does. The negation is an instruction whose only register source
// is the second.
const callsSrc = `
        .entry main
main:   movi    r3, 100000
loop:   movi    r1, 20
        movi    r2, rsum
        jsr     ra, (r2)
        sub     zero, r0, r4
        sub     r3, 1, r3
        bgt     r3, loop
        halt
rsum:   bgt     r1, rec
        movi    r0, 0
        ret
rec:    sub     sp, 16, sp
        stq     ra, 0(sp)
        stq     r1, 8(sp)
        sub     r1, 1, r1
        movi    r2, rsum
        jsr     ra, (r2)
        ldq     r1, 8(sp)
        ldq     ra, 0(sp)
        add     sp, 16, sp
        add     r0, r1, r0
        ret
`

// allocProgram is one program the allocation tests run.
type allocProgram struct {
	name string
	prog *isa.Program
}

// allocPrograms returns the programs both tests run under every case. They
// are chosen by coverage: gcc mispredicts indirect jumps, gzip hits L1
// lines whose fill is still in flight (cachesim's MSHR merge), unepic
// forwards stores to loads (gzip, gcc and vortex never do), and callsSrc
// mispredicts returns. vortex, which TestCycleLoopBytesWindow used to run,
// executes no statement in any package the four miss.
func allocPrograms(t *testing.T) []allocProgram {
	t.Helper()
	var out []allocProgram
	for _, name := range []string{"gcc", "gzip", "unepic"} {
		bm, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s kernel missing", name)
		}
		out = append(out, allocProgram{name, bm.ProgramFor(2_000_000)})
	}
	calls, err := asm.Assemble(callsSrc)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, allocProgram{"calls", calls})
}

func TestCycleLoopZeroAlloc(t *testing.T) {
	progs := allocPrograms(t)
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, pr := range progs {
				p := c.newPipeline(pr.prog)
				warmUp(t, p, pr.name)

				const cyclesPerRun = 200
				allocs := testing.AllocsPerRun(20, func() {
					for i := 0; i < cyclesPerRun && !p.done(); i++ {
						step(p)
					}
				})
				if p.done() {
					t.Fatalf("%s: stream exhausted during measurement; enlarge the program", pr.name)
				}
				if allocs != 0 {
					t.Errorf("%s: steady-state cycle loop allocated: %.1f allocs per %d cycles (want 0)", pr.name, allocs, cyclesPerRun)
				}
			}
		})
	}
}

// TestCycleLoopBytesWindow is the amortized half of the zero-allocation
// rule. AllocsPerRun divides its malloc count by the run count in integer
// arithmetic, so a slice that doubles every few thousand cycles, or an
// allocation on a branch taken once in a few hundred cycles, averages to
// zero there. Here a window of windowCycles after warm-up must stay under a
// byte bound and a malloc bound. A leak that grows with run length costs
// hundreds of kilobytes. The bounds leave room only for the rare first
// touch of a new static PC or data page: over the 17 cases × 4 programs,
// windows measured 0–23,360 bytes and 0–41 mallocs, the top end on gcc.
// One 8-byte allocation per store forward (unepic: about 2,000 a window
// under FDRT) or per mispredicted return (calls: about 1,000) stays under
// the byte bound but fails the malloc bound. The stream is then cut at the
// window's end and the machine drained, which every run ends with; the
// drain touches nothing new, so it must not allocate at all (measured 0
// mallocs over drains of 3–153 cycles).
func TestCycleLoopBytesWindow(t *testing.T) {
	const (
		windowCycles = 100_000
		maxBytes     = 32 << 10
		maxMallocs   = 64
		// maxDrainCycles turns a drain that stalls into a failure instead
		// of a hang until go test's timeout.
		maxDrainCycles = 10_000
	)
	progs := allocPrograms(t)
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, pr := range progs {
				p := c.newPipeline(pr.prog)
				warmUp(t, p, pr.name)
				var before, after, drained runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < windowCycles && !p.done(); i++ {
					step(p)
				}
				runtime.ReadMemStats(&after)
				if p.done() {
					t.Fatalf("%s: stream exhausted before the window ended; enlarge the program", pr.name)
				}
				bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
				if bytes > maxBytes || mallocs > maxMallocs {
					t.Errorf("%s: %d cycles after warm-up allocated %d bytes in %d mallocs (bounds %d, %d)",
						pr.name, windowCycles, bytes, mallocs, maxBytes, maxMallocs)
				}

				p.cfg.MaxInsts = p.consumed // the stream ends here
				drain := 0
				for ; !p.done(); drain++ {
					if drain == maxDrainCycles {
						t.Fatalf("%s: machine not drained after %d cycles", pr.name, maxDrainCycles)
					}
					step(p)
				}
				runtime.ReadMemStats(&drained)
				if n := drained.Mallocs - after.Mallocs; n != 0 {
					t.Errorf("%s: the %d-cycle drain allocated %d bytes in %d mallocs (want 0)",
						pr.name, drain, drained.TotalAlloc-after.TotalAlloc, n)
				}
				t.Logf("%s: window %d bytes in %d mallocs; drain %d cycles", pr.name, bytes, mallocs, drain)
			}
		})
	}
}

// warmUp runs p past pool ramp-up, per-PC table growth and trace-cache
// fill, whose amortized allocations are allowed: 20k cycles at the default
// fetch width, proportionally longer for a narrower front end, which needs
// more cycles to fill the trace cache and the per-PC tables.
func warmUp(t *testing.T, p *Pipeline, name string) {
	t.Helper()
	warm := 20_000 * DefaultConfig().FetchWidth / p.cfg.FetchWidth
	for i := 0; i < warm && !p.done(); i++ {
		step(p)
	}
	if p.done() {
		t.Fatalf("%s: stream exhausted during warm-up; enlarge the program", name)
	}
}

// step advances the model by one iteration of runLoop: one cycle. It omits
// only the no-progress watchdog.
func step(p *Pipeline) {
	p.cycle()
	p.now++
}
