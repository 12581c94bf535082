package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ctcp/internal/asm"
	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/workload"
)

// Per-kernel budgets of the idle-skip oracle: on the Table 7 machine, and on
// each variant of it.
const (
	idleSkipKernelInsts  = 10_000
	idleSkipVariantInsts = 2_500
)

// idleSkipPrograms are the two hand-written probes of the idle fast-forward,
// each aimed at an event source a skip used to miss: a divider's unit frees
// a cycle before its result is ready, and a full store buffer frees an entry
// when a drain completes — here while a missing load's consumer waits on a
// later cycle, so a skip that ignores drains overshoots them. Each store
// goes to its own 4 KB page.
var idleSkipPrograms = []struct{ name, src string }{
	{"div8", `
        .entry main
main:   movi    r1, 300
        movi    r2, 7
loop:   div     r1, r2, r3
        div     r1, r2, r4
        div     r1, r2, r5
        div     r1, r2, r6
        div     r1, r2, r7
        div     r1, r2, r8
        div     r1, r2, r9
        div     r1, r2, r10
        sub     r1, 1, r1
        bne     r1, loop
        halt
`},
	{"store-pages", `
        .entry main
main:   movi    r1, 0x400000
        movi    r8, 0x9000000
        movi    r3, 4096
        movi    r4, 10
burst:  movi    r2, 48
loop:   stq     r2, 0(r1)
        add     r1, r3, r1
        sub     r2, 1, r2
        bne     r2, loop
        ldq     r7, 0(r8)
        add     r7, 1, r7
        add     r8, r3, r8
        sub     r4, 1, r4
        bne     r4, burst
        halt
`},
}

type idleSkipInput struct {
	name   string
	prog   *isa.Program
	budget uint64 // 0: run to HALT
}

// idleSkipInputs returns every kernel at the given budget, every program of
// the conformance corpus, and the idle-skip probes above.
func idleSkipInputs(t *testing.T, insts uint64) []idleSkipInput {
	t.Helper()
	var in []idleSkipInput
	for _, bm := range workload.All() {
		in = append(in, idleSkipInput{bm.Name, bm.ProgramFor(insts), insts})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.s"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("conformance corpus: %d programs, err %v", len(paths), err)
	}
	var programs []struct{ name, src string }
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, struct{ name, src string }{
			"corpus/" + strings.TrimSuffix(filepath.Base(path), ".s"), string(b)})
	}
	for _, pr := range append(programs, idleSkipPrograms...) {
		prog, err := asm.Assemble(pr.src)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		in = append(in, idleSkipInput{name: pr.name, prog: prog})
	}
	return in
}

// steppedRun simulates in with cfg one cycle at a time, never fast-
// forwarding, and returns the statistics Run would report. Whenever a cycle
// is idle, it also checks the fast-forward's contract: no cycle before the
// nextEvent computed after that idle cycle does any work.
func steppedRun(t *testing.T, in idleSkipInput, cfg Config) *Stats {
	t.Helper()
	var stream emu.Stream = emu.New(in.prog)
	if in.budget != 0 {
		stream = &emu.LimitStream{S: stream, Budget: in.budget}
	}
	p := New(stream, cfg)
	quietFrom, quietUntil := int64(-1), int64(-1)
	for !p.done() {
		if p.cycle() {
			if p.now < quietUntil {
				t.Fatalf("%s: cycle %d works, but the idle cycle %d fast-forwards to %d",
					in.name, p.now, quietFrom, quietUntil)
			}
		} else if next := p.nextEvent(); next > quietUntil {
			quietFrom, quietUntil = p.now, next
		}
		p.now++
		if p.now-p.lastRetireCycle > 2_000_000 {
			t.Fatalf("%s: no retirement near cycle %d", in.name, p.now)
		}
	}
	return p.Finish()
}

// TestIdleSkipMatchesCycleByCycle is the oracle for the idle fast-forward:
// Run, which jumps from an idle cycle straight to nextEvent, must report
// exactly the statistics of a run stepped one cycle at a time — cycle
// counts, every stall counter and every component's counters — under every
// strategy and ideal issue-time steering, on the Table 7 machine and on
// variants that move the interconnect, the cluster count and each queue
// that can block a stage.
func TestIdleSkipMatchesCycleByCycle(t *testing.T) {
	inputs := idleSkipInputs(t, idleSkipKernelInsts)
	variantInputs := idleSkipInputs(t, idleSkipVariantInsts)
	type variant struct {
		name   string
		cfg    Config
		inputs []idleSkipInput
	}
	machines := []struct {
		name string
		f    func(*Config)
	}{
		{"", func(*Config) {}},
		{"ring/", func(c *Config) { c.Geom.Topology = cluster.Ring }},
		{"hop1/", func(c *Config) { c.Geom.HopLat = 1 }},
		{"2x4/", func(c *Config) {
			c.Geom.Clusters, c.FetchWidth, c.RetireWidth, c.Trace.MaxLen = 2, 8, 8, 8
		}},
		{"rs2x1/", func(c *Config) { c.RS = cluster.RSConfig{Entries: 2, WritePorts: 1} }},
		{"rob64/", func(c *Config) { c.ROBSize = 64 }},
		{"sb4-lq4/", func(c *Config) { c.StoreBuffer, c.LoadQueue = 4, 4 }},
	}
	var variants []variant
	for i, m := range machines {
		base := DefaultConfig()
		m.f(&base)
		in := inputs
		if i > 0 {
			in = variantInputs
		}
		for _, k := range core.Strategies() {
			variants = append(variants, variant{m.name + k.String(), base.WithStrategy(k, false), in})
		}
		variants = append(variants, variant{m.name + "issue-time-ideal", base.WithStrategy(core.IssueTime, true), in})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, in := range v.inputs {
				cfg := v.cfg
				cfg.MaxInsts = in.budget
				want := RunProgram(in.prog, cfg)
				got := steppedRun(t, in, v.cfg)
				if diff := statsDiff(reflect.ValueOf(*got), reflect.ValueOf(*want), "Stats"); diff != "" {
					t.Fatalf("%s: the fast-forwarded run differs from the stepped run:%s", in.name, diff)
				}
			}
		})
	}
}

// statsDiff lists, one per line, every counter in which the stepped run a
// and the fast-forwarded run b differ.
func statsDiff(a, b reflect.Value, path string) string {
	if a.Kind() == reflect.Struct {
		var out strings.Builder
		for i := 0; i < a.NumField(); i++ {
			out.WriteString(statsDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name))
		}
		return out.String()
	}
	if a.Interface() == b.Interface() {
		return ""
	}
	return fmt.Sprintf("\n  %s: stepped %v, fast-forwarded %v", path, a.Interface(), b.Interface())
}
