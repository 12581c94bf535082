package main

import (
	"strings"
	"testing"

	"ctcp/internal/experiment"
)

// TestAllIsThePaper: 'all' selects every artifact except the opt-in design
// sweeps.
func TestAllIsThePaper(t *testing.T) {
	want, err := selectArtifacts("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range artifacts {
		if got := want[a.name]; got != (a.name != "sweeps") {
			t.Errorf("all selects %s = %v", a.name, got)
		}
	}
	if len(want) != len(artifacts)-1 {
		t.Errorf("all selects %d artifacts, want %d", len(want), len(artifacts)-1)
	}
}

// TestSweepsAreOptIn: the sweeps run when named, alone or next to 'all'.
func TestSweepsAreOptIn(t *testing.T) {
	only, err := selectArtifacts("sweeps")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || !only["sweeps"] {
		t.Errorf("sweeps selects %v", only)
	}
	both, err := selectArtifacts("all, sweeps")
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != len(artifacts) {
		t.Errorf("all,sweeps selects %d artifacts, want every one of %d", len(both), len(artifacts))
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

// TestAllReadsEveryPrefetchedRun renders every artifact of 'all' on one
// runner, as `make results` does, at a tiny budget: each simulation it
// starts must be one an artifact reads back, so the default run simulates
// exactly what it prints.
func TestAllReadsEveryPrefetchedRun(t *testing.T) {
	want, err := selectArtifacts("all")
	if err != nil {
		t.Fatal(err)
	}
	r := experiment.NewRunner(experiment.Options{Budget: 2_000, Parallelism: 2})
	for _, a := range artifacts {
		if want[a.name] {
			a.run(r)
		}
	}
	if unread := r.Unread(); len(unread) != 0 {
		t.Errorf("%d of %d simulations are never read, e.g. %v", len(unread), r.Stats().Started, unread[:min(len(unread), 5)])
	}
	if sum := r.FailureSummary(); sum != "" {
		t.Errorf("runs failed: %s", sum)
	}
}
