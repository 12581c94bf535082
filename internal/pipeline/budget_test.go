package pipeline

// Tests for Config.MaxInsts, which the pipeline enforces on its own
// consumed counter: fetch reads the stream directly (an *emu.Machine
// through a direct call, any other emu.Stream through the interface), and
// the budget bounds Run and RunTo alike.

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
)

const budgetInsts = 3_000

// budgetConfig is FDRT with a budget well short of the kernel's length.
func budgetConfig() Config {
	cfg := DefaultConfig().WithStrategy(core.FDRT, false)
	cfg.MaxInsts = budgetInsts
	return cfg
}

// requireBudgetStop checks that p retired and consumed exactly the budget.
func requireBudgetStop(t *testing.T, p *Pipeline, s *Stats) {
	t.Helper()
	if s.Retired != budgetInsts || p.Consumed() != budgetInsts {
		t.Errorf("retired %d and consumed %d, want both %d", s.Retired, p.Consumed(), budgetInsts)
	}
}

// TestRunBudgetOnMachine: on a bare *emu.Machine, Run retires exactly
// MaxInsts and never steps the emulator past the budget.
func TestRunBudgetOnMachine(t *testing.T) {
	m := emu.New(resetProg(t, "gzip"))
	p := New(m, budgetConfig())
	if p.mach != m {
		t.Fatal("a *emu.Machine stream is not read through the direct path")
	}
	requireBudgetStop(t, p, p.Run())
	if n := m.InstCount(); n != budgetInsts {
		t.Errorf("emulator executed %d instructions, want %d", n, budgetInsts)
	}
}

// TestRunBudgetOnSliceStream: any other emu.Stream takes the interface path
// under the same budget, with the same result as the direct path.
func TestRunBudgetOnSliceStream(t *testing.T) {
	prog := resetProg(t, "gzip")
	m := emu.New(prog)
	recs := make([]emu.Committed, 0, 2*budgetInsts)
	for len(recs) < cap(recs) {
		c, ok := m.Next()
		if !ok {
			t.Fatalf("kernel halted after %d instructions: %v", len(recs), m.Err())
		}
		recs = append(recs, c)
	}
	p := New(&emu.SliceStream{Recs: recs}, budgetConfig())
	if p.mach != nil {
		t.Fatal("a SliceStream took the *emu.Machine path")
	}
	got := p.Run()
	requireBudgetStop(t, p, got)
	want := New(emu.New(prog), budgetConfig()).Run()
	if !reflect.DeepEqual(want, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Errorf("interface path diverged from the direct path\n direct    %s\n interface %s", wj, gj)
	}
}

// TestRunToStopsAtMaxInsts: a segment limit past the budget stops at the
// budget and reports the stream exhausted.
func TestRunToStopsAtMaxInsts(t *testing.T) {
	p := New(emu.New(resetProg(t, "gzip")), budgetConfig())
	if !p.RunTo(2 * budgetInsts) {
		t.Fatal("RunTo past MaxInsts did not report the stream exhausted")
	}
	requireBudgetStop(t, p, p.Finish())
}

// TestResetAfterRunReadsNewStream: Run leaves the stream it was given in
// place, and a Reset reads its new stream unwrapped, with the result of a
// new pipeline.
func TestResetAfterRunReadsNewStream(t *testing.T) {
	prog := resetProg(t, "gzip")
	first := emu.New(prog)
	p := New(first, budgetConfig())
	p.Run()
	if p.stream != emu.Stream(first) {
		t.Fatalf("Run replaced its stream with a %T", p.stream)
	}
	next := emu.New(prog)
	p.Reset(next, budgetConfig())
	if p.stream != emu.Stream(next) || p.mach != next {
		t.Fatalf("Reset reads a %T, not the *emu.Machine it was given", p.stream)
	}
	requireSameStats(t, "Reset after Run", New(emu.New(prog), budgetConfig()).Run(), p.Run())
}

// TestPortBookingLapPanics: a booking that would reclaim a port slot still
// holding a live booking, one portWindow cycles ahead, panics
// *core.InvariantError instead of dropping it; a stale booking, one behind
// the current cycle, is reclaimed silently.
func TestPortBookingLapPanics(t *testing.T) {
	const now = 100
	var ps portSched
	ps.reset()
	if got := ps.book(now-1, 0, 1); got != now-1 {
		t.Fatalf("booked cycle %d, want %d", got, now-1)
	}
	if got := ps.book(now-1+portWindow, now, 1); got != now-1+portWindow {
		t.Fatalf("stale slot: booked cycle %d, want %d", got, now-1+portWindow)
	}

	ps.book(now+portWindow, now, 1) // live: at or after now
	defer func() {
		var ie *core.InvariantError
		if err, _ := recover().(error); !errors.As(err, &ie) {
			t.Fatalf("booking over a live slot panicked with %v, want *core.InvariantError", err)
		}
	}()
	ps.book(now, now, 1)
	t.Fatal("booking over a live slot did not panic")
}
