package pipeline

// Reset oracle: a reused pipeline must be indistinguishable from a new one.
// Reset returns a pipeline in any state to exactly the state New builds.
// That covers a finished run, a paused one, one that failed mid-cycle, and
// one built for another geometry. Every test here compares a reused
// pipeline's Stats or snapshot bytes against a new pipeline's on the same
// input. Sampled simulation and the experiment runner reuse pipelines on the
// strength of these tests.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

const resetInsts = 8_000

// resetProg returns the named kernel sized for resetInsts.
func resetProg(t *testing.T, name string) *isa.Program {
	t.Helper()
	bm, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return bm.ProgramFor(resetInsts)
}

// freshStats runs prog under cfg on a new pipeline.
func freshStats(prog *isa.Program, cfg Config) *Stats {
	cfg.MaxInsts = resetInsts
	return New(emu.New(prog), cfg).Run()
}

// reusedStats runs prog under cfg on p after a Reset.
func reusedStats(p *Pipeline, prog *isa.Program, cfg Config) *Stats {
	cfg.MaxInsts = resetInsts
	p.Reset(emu.New(prog), cfg)
	return p.Run()
}

func requireSameStats(t *testing.T, what string, want, got *Stats) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Errorf("%s: reused pipeline diverged from New\n new    %s\n reused %s", what, wj, gj)
	}
}

// TestResetMatchesNew: for every kernel under all six strategies, a
// pipeline that last ran a different kernel and is then Reset reports Stats
// identical to a new pipeline's.
func TestResetMatchesNew(t *testing.T) {
	kernels := workload.All()
	progs := make([]*isa.Program, len(kernels))
	for i, bm := range kernels {
		progs[i] = bm.ProgramFor(resetInsts)
	}
	for _, k := range core.Strategies() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig().WithStrategy(k, false)
			// Start from the last kernel, so every kernel, the first
			// included, follows a different one.
			p := new(Pipeline)
			reusedStats(p, progs[len(progs)-1], cfg)
			for i, bm := range kernels {
				requireSameStats(t, bm.Name, freshStats(progs[i], cfg), reusedStats(p, progs[i], cfg))
			}
		})
	}
}

// TestResetAfterFailedRun: a run that aborted mid-cycle leaves the pipeline
// in no particular state. Here a retire hook panics with instructions in
// flight, as any model invariant would, and the same pipeline's next run
// matches a new pipeline's. A config that fails validation must not
// disturb the pipeline either.
func TestResetAfterFailedRun(t *testing.T) {
	gzip, mcf := resetProg(t, "gzip"), resetProg(t, "mcf")
	// panics reports whether f panicked with a *core.InvariantError.
	panics := func(f func()) (ok bool) {
		defer func() {
			_, ok = recover().(*core.InvariantError)
		}()
		f()
		return false
	}
	for _, k := range core.Strategies() {
		cfg := DefaultConfig().WithStrategy(k, false)
		crash := cfg
		retired := 0
		crash.RetireHook = func(core.RetireInfo) {
			if retired++; retired == resetInsts/2 {
				panic(&core.InvariantError{Msg: "injected failure"})
			}
		}
		p := new(Pipeline)
		if !panics(func() { reusedStats(p, gzip, crash) }) {
			t.Fatalf("%v: setup: the crashing run did not fail", k)
		}
		if p.robLen == 0 {
			t.Fatalf("%v: setup: want instructions in flight at the failure", k)
		}
		requireSameStats(t, k.String()+" after a failed run", freshStats(mcf, cfg), reusedStats(p, mcf, cfg))

		invalid := cfg
		invalid.Geom.Clusters = 0
		if !panics(func() { reusedStats(p, mcf, invalid) }) {
			t.Fatalf("%v: setup: the invalid config was accepted", k)
		}
		requireSameStats(t, k.String()+" after an invalid config", freshStats(gzip, cfg), reusedStats(p, gzip, cfg))
	}
}

// TestResetAfterInterruptedRun: a pipeline paused at a RunTo boundary and
// one stopped mid-segment with instructions in flight both Reset to New's
// state.
func TestResetAfterInterruptedRun(t *testing.T) {
	gzip, mcf := resetProg(t, "gzip"), resetProg(t, "mcf")
	for _, k := range core.Strategies() {
		cfg := DefaultConfig().WithStrategy(k, false)
		paused := New(&emu.LimitStream{S: emu.New(gzip), Budget: resetInsts}, cfg)
		if paused.RunTo(resetInsts / 2) {
			t.Fatalf("%v: setup: stream exhausted before the pause", k)
		}
		midway := New(&emu.LimitStream{S: emu.New(gzip), Budget: resetInsts}, cfg)
		stopMidSegment(midway)
		if midway.robLen == 0 {
			t.Fatalf("%v: setup: want instructions in flight mid-segment", k)
		}
		want := freshStats(mcf, cfg)
		requireSameStats(t, k.String()+" after a RunTo pause", want, reusedStats(paused, mcf, cfg))
		requireSameStats(t, k.String()+" mid-segment", want, reusedStats(midway, mcf, cfg))
	}
}

// stopMidSegment runs p's first segment, then starts the second and stops
// it a few hundred cycles in, with instructions in flight.
func stopMidSegment(p *Pipeline) {
	p.RunTo(resetInsts / 4)
	p.fetchLimit = resetInsts / 2
	for i := 0; i < 300; i++ {
		step(p)
	}
}

// geometryConfigs is a walk through configurations that resize the
// pipeline's geometry-dependent buffers in both directions.
func geometryConfigs() []struct {
	name string
	cfg  Config
} {
	base := DefaultConfig().WithStrategy(core.FDRT, false)
	fetch8 := base
	fetch8.FetchWidth, fetch8.Trace.MaxLen = 8, 8
	twoClusters := base
	twoClusters.Geom.Clusters, twoClusters.Geom.Width = 2, 8
	bigROB := base
	bigROB.ROBSize = 256
	bigRS := base
	bigRS.RS.Entries = 16
	smallTC := base
	smallTC.Trace.Lines = 256
	issue8 := DefaultConfig().WithStrategy(core.IssueTime, false)
	issue8.Geom.Clusters, issue8.Geom.Width = 8, 2
	return []struct {
		name string
		cfg  Config
	}{
		{"default", base},
		{"fetch width 8, 8-long traces", fetch8},
		{"2 clusters", twoClusters},
		{"ROB 256", bigROB},
		{"16-entry stations", bigRS},
		{"256 trace lines", smallTC},
		{"8 clusters, issue-time", issue8},
		{"default again", base},
	}
}

// TestResetAcrossGeometry: a Reset that changes clusters, cluster width,
// ROB size, station size, fetch width, trace length or trace cache lines
// matches New, and the rebuilt buffers take the new geometry's size rather
// than keeping the larger of the two. That includes each cluster's window
// and ready mask, which grow with the station size and the cluster width
// and shrink back with them.
func TestResetAcrossGeometry(t *testing.T) {
	progs := []*isa.Program{resetProg(t, "gzip"), resetProg(t, "eon")}
	sizes := func(p *Pipeline) []int {
		s := []int{len(p.distTab), len(p.cl), len(p.storeRing), len(p.tc.Dump()), len(p.st.e)}
		for c := range p.cl {
			s = append(s, cap(p.cl[c].ids), len(p.cl[c].ready))
		}
		return s
	}
	p := new(Pipeline)
	for i, g := range geometryConfigs() {
		prog := progs[i%len(progs)]
		cfg := g.cfg
		cfg.MaxInsts = resetInsts
		fresh := New(emu.New(prog), cfg)
		requireSameStats(t, g.name, fresh.Run(), reusedStats(p, prog, g.cfg))
		if got, want := sizes(p), sizes(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused buffer sizes %v, new pipeline's %v", g.name, got, want)
		}
	}
}

// encode returns p's snapshot bytes.
func encode(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	w := snap.NewWriter()
	p.Snapshot(w)
	data, err := w.Finish()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return data
}

// TestResetSnapshotMatchesNew: the bytes Snapshot encodes right after Reset
// equal those right after New. The encoding covers every serialized
// component (predictor, caches, trace cache, fill unit, pipeline tables),
// so this checks that each is back to New's state, not merely one that
// behaves the same. The reused pipeline first runs to completion, stops
// mid-segment, or runs under another geometry.
func TestResetSnapshotMatchesNew(t *testing.T) {
	gzip, mcf := resetProg(t, "gzip"), resetProg(t, "mcf")
	stream := func(prog *isa.Program) emu.Stream {
		return &emu.LimitStream{S: emu.New(prog), Budget: resetInsts}
	}
	check := func(what string, p *Pipeline, cfg Config) {
		t.Helper()
		want := encode(t, New(stream(mcf), cfg))
		p.Reset(stream(mcf), cfg)
		if got := encode(t, p); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot after Reset (%d bytes) differs from snapshot after New (%d bytes)", what, len(got), len(want))
		}
	}
	for _, k := range core.Strategies() {
		cfg := DefaultConfig().WithStrategy(k, false)
		finished := New(stream(gzip), cfg)
		finished.RunTo(0)
		finished.Finish()
		check(k.String()+" after a finished run", finished, cfg)

		midway := New(stream(gzip), cfg)
		stopMidSegment(midway)
		check(k.String()+" mid-segment", midway, cfg)
	}
	configs := geometryConfigs()
	p := New(stream(gzip), configs[len(configs)-1].cfg)
	for _, g := range configs {
		p.RunTo(0)
		check("into "+g.name, p, g.cfg)
	}
}

// TestResetAllocatesNothing: a Reset that keeps the geometry reuses every
// buffer, also after a run whose trace-cache groups are longer than the
// fetch width.
func TestResetAllocatesNothing(t *testing.T) {
	narrow := DefaultConfig().WithStrategy(core.FDRT, false)
	narrow.FetchWidth = 4
	for _, cfg := range []Config{DefaultConfig().WithStrategy(core.FDRT, false), narrow} {
		cfg.MaxInsts = resetInsts
		m := emu.New(resetProg(t, "gzip"))
		p := New(m, cfg)
		p.Run()
		if allocs := testing.AllocsPerRun(10, func() { p.Reset(m, cfg) }); allocs != 0 {
			t.Errorf("fetch width %d: same-geometry Reset allocated %.1f times, want 0", cfg.FetchWidth, allocs)
		}
	}
}
