package ctcp

import (
	"errors"
	"strings"
	"testing"

	"ctcp/internal/experiment"
)

func TestFacadeAssembleAndRun(t *testing.T) {
	p, err := Assemble(`
        movi r1, 6
        movi r2, 7
        mul  r1, r2, r3
        out  r3
        halt`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(m.OutValues) != 1 || m.OutValues[0] != 42 {
		t.Fatalf("out = %v", m.OutValues)
	}
	if dis := Disassemble(p); !strings.Contains(dis, "mul r1, r2, r3") {
		t.Error("disassembly missing instruction")
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	if len(SPECint()) != 12 || len(MediaBench()) != 14 || len(AllBenchmarks()) != 26 {
		t.Error("suite sizes wrong")
	}
	if len(SelectedBenchmarks()) != 6 {
		t.Error("selected size wrong")
	}
	if _, ok := BenchmarkByName("twolf"); !ok {
		t.Error("BenchmarkByName failed")
	}
}

func TestFacadeRunBenchmark(t *testing.T) {
	bm, _ := BenchmarkByName("gzip")
	s := Run(bm, DefaultConfig().WithStrategy(FDRT, false), 20_000)
	if s.Retired != 20_000 {
		t.Errorf("retired %d", s.Retired)
	}
	if s.IPC() <= 0 {
		t.Error("no progress")
	}
}

func TestFacadeProgramBuilder(t *testing.T) {
	b := NewProgramBuilder()
	b.Movi(2, 5) // r2 = 5
	b.Out(2)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.OutValues[0] != 5 {
		t.Errorf("out = %v", m.OutValues)
	}
}

func TestFacadeExperiments(t *testing.T) {
	e := NewExperiments(15_000)
	out, err := e.Render("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Trace Cache Characteristics") {
		t.Error("experiment render missing title")
	}
	if _, err := e.Render("table4"); err == nil || !strings.Contains(err.Error(), experiment.ArtifactNames()) {
		t.Errorf("unknown artifact: err = %v, want one listing the valid names", err)
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{Base, IssueTime, Friendly, FriendlyMiddle, FDRT, FDRTNoPin} {
		if s.String() == "unknown" {
			t.Errorf("strategy %d unnamed", s)
		}
	}
}

func TestFacadeRunErr(t *testing.T) {
	bm, _ := BenchmarkByName("gzip")
	s, err := RunErr(bm, DefaultConfig(), 10_000)
	if err != nil || s == nil || s.Retired != 10_000 {
		t.Fatalf("RunErr = %v, %v", s, err)
	}
	bad := DefaultConfig()
	bad.Geom.Clusters = 0
	s, err = RunErr(bm, bad, 5_000)
	if s != nil {
		t.Errorf("stats = %+v, want nil", s)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *SimError", err, err)
	}
}

func TestFacadeExperimentsObservability(t *testing.T) {
	e := NewExperiments(15_000)
	if _, err := e.Render("table1"); err != nil {
		t.Fatal(err)
	}
	st := e.RunnerStats()
	if st.Started == 0 || st.Completed == 0 {
		t.Errorf("runner stats empty after an experiment: %+v", st)
	}
	if len(e.Failures()) != 0 || e.FailureSummary() != "" {
		t.Errorf("unexpected failures: %v", e.Failures())
	}
}
