package pipeline

import (
	"errors"
	"strings"
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/workload"
)

func TestRunProgramErrSuccess(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	cfg := DefaultConfig()
	cfg.MaxInsts = 10_000
	s, err := RunProgramErr(bm.ProgramFor(10_000), cfg)
	if err != nil {
		t.Fatalf("RunProgramErr failed on a healthy config: %v", err)
	}
	if s == nil || s.Retired != 10_000 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRunProgramErrRecoversPanic(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	cfg := DefaultConfig()
	cfg.Geom.Clusters = 0 // no valid steering target: the model panics
	cfg.MaxInsts = 5_000
	s, err := RunProgramErr(bm.ProgramFor(5_000), cfg)
	if s != nil {
		t.Errorf("stats = %+v, want nil on aborted run", s)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *SimError", err, err)
	}
	if se.Reason == "" || se.Stack == "" {
		t.Errorf("SimError missing context: %+v", se)
	}
	if !strings.Contains(se.Error(), "simulation aborted") {
		t.Errorf("Error() = %q", se.Error())
	}
}

// TestRunProgramStillPanics pins the low-level contract: RunProgram itself
// does not swallow invariant violations — only the Err boundary does.
func TestRunProgramStillPanics(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	cfg := DefaultConfig()
	cfg.Geom.Clusters = 0
	cfg.MaxInsts = 5_000
	defer func() {
		if recover() == nil {
			t.Error("RunProgram did not panic on a pathological config")
		}
	}()
	RunProgram(bm.ProgramFor(5_000), cfg)
}

// TestNoProgressWatchdog fires the watchdog, the only guard against a cycle
// loop that never ends. Validate rejects RetireWidth 0, so setting it after
// New stands in for a model bug that stops retirement: Run must panic with
// an *InvariantError once two million cycles pass without a retirement.
func TestNoProgressWatchdog(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	cfg := DefaultConfig()
	cfg.MaxInsts = 1_000
	p := New(emu.New(bm.ProgramFor(1_000)), cfg)
	p.cfg.RetireWidth = 0
	defer func() {
		ie, ok := recover().(*core.InvariantError)
		if !ok {
			t.Fatalf("Run did not panic with *core.InvariantError")
		}
		if want := "no retirement progress near cycle 2000001 "; !strings.Contains(ie.Msg, want) {
			t.Errorf("panic %q, want it to contain %q", ie.Msg, want)
		}
		if p.CurrentCycle() != 2_000_001 {
			t.Errorf("watchdog fired at cycle %d, want 2000001", p.CurrentCycle())
		}
		if p.Retired() != 0 {
			t.Errorf("retired %d instructions with RetireWidth 0", p.Retired())
		}
	}()
	p.Run()
}
