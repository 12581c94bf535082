package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"ctcp/internal/experiment"
)

// TestAllIsThePaper: 'all' selects every registry entry except the opt-in
// ones.
func TestAllIsThePaper(t *testing.T) {
	want, err := selectArtifacts("all")
	if err != nil {
		t.Fatal(err)
	}
	paper := 0
	for _, a := range experiment.Artifacts {
		if got := want[a.Name]; got == a.OptIn {
			t.Errorf("all selects %s = %v", a.Name, got)
		}
		if !a.OptIn {
			paper++
		}
	}
	if len(want) != paper {
		t.Errorf("all selects %d artifacts, want %d", len(want), paper)
	}
}

// TestSweepsAreOptIn: the sweeps are opt-in, and every opt-in entry runs
// when named, alone or next to 'all'.
func TestSweepsAreOptIn(t *testing.T) {
	if all, _ := selectArtifacts("all"); all["sweeps"] {
		t.Error("all selects the sweeps")
	}
	for _, a := range experiment.Artifacts {
		if !a.OptIn {
			continue
		}
		only, err := selectArtifacts(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(only) != 1 || !only[a.Name] {
			t.Errorf("%s selects %v", a.Name, only)
		}
		both, err := selectArtifacts("all, " + a.Name)
		if err != nil {
			t.Fatal(err)
		}
		if all, _ := selectArtifacts("all"); len(both) != len(all)+1 || !both[a.Name] {
			t.Errorf("all,%s selects %v", a.Name, both)
		}
	}
}

// TestUnknownArtifactRejected: a name that is neither an artifact nor
// 'all' fails the selection, naming itself.
func TestUnknownArtifactRejected(t *testing.T) {
	for _, exps := range []string{"bogus", "all,bogus", "fig6,", ""} {
		if _, err := selectArtifacts(exps); err == nil {
			t.Errorf("selectArtifacts(%q) accepted", exps)
		} else if !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("selectArtifacts(%q) = %v", exps, err)
		}
	}
}

// TestResultsFollowTheRegistry reads the checked-in results_full.txt, the
// output of `make results`: its "[<name> regenerated in ...]" lines must
// name exactly the registry's paper artifacts, in registry order. A new or
// reordered entry fails here until the results are regenerated.
func TestResultsFollowTheRegistry(t *testing.T) {
	data, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range regexp.MustCompile(`(?m)^\[(\S+) regenerated in .*\]$`).FindAllStringSubmatch(string(data), -1) {
		got = append(got, m[1])
	}
	for _, a := range experiment.Artifacts {
		if !a.OptIn {
			want = append(want, a.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("results_full.txt regenerates %v, registry's paper artifacts are %v", got, want)
	}
}

// captureRun calls run with os.Stdout and os.Stderr swapped for pipes and
// returns the exit code and what each stream received.
func captureRun(t *testing.T, o *cliOptions) (code int, stdout, stderr string) {
	t.Helper()
	// capture points *f at a pipe; the function it returns puts *f back
	// and returns everything written to the pipe.
	capture := func(f **os.File) func() string {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		old := *f
		*f = w
		got := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			r.Close()
			got <- string(b)
		}()
		return func() string {
			*f = old
			w.Close()
			return <-got
		}
	}
	stdoutOf, stderrOf := capture(&os.Stdout), capture(&os.Stderr)
	code = run(o)
	return code, stdoutOf(), stderrOf()
}

// TestInjectFault: -inject-fault records one deliberately invalid run. The
// requested artifact still renders, the failure summary names the run, and
// the exit code is 1; the same run without it exits 0 and stays quiet.
func TestInjectFault(t *testing.T) {
	for _, inject := range []bool{false, true} {
		code, out, errs := captureRun(t, &cliOptions{exps: "table1", insts: 2000, par: 1, inject: inject})
		if !strings.Contains(out, "[table1 regenerated in") {
			t.Errorf("inject=%v: table1 not rendered:\n%s", inject, out)
		}
		switch {
		case inject && (code != 1 || !strings.Contains(errs, "gzip/inject-fault")):
			t.Errorf("inject=true: exit %d, stderr %q; want 1 naming gzip/inject-fault", code, errs)
		case !inject && (code != 0 || errs != ""):
			t.Errorf("inject=false: exit %d, stderr %q; want 0 and nothing", code, errs)
		}
	}
}
