package pipeline

import (
	"testing"

	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/workload"
)

// Tests for the invariant panics on arms DESIGN.md §9 proves unreachable:
// each corrupts the state the proof rests on and expects the arm's
// prebuilt *core.InvariantError.

// wantInvariant runs f and fails unless it panics with want itself.
func wantInvariant(t *testing.T, want *core.InvariantError, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic value %v, want %q", got, want.Msg)
		}
	}()
	f()
}

// gzipPipeline returns a pipeline over a short gzip run under strategy k.
func gzipPipeline(t *testing.T, k core.StrategyKind) *Pipeline {
	t.Helper()
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip kernel missing")
	}
	const insts = 8_000
	return New(&emu.LimitStream{S: emu.New(bm.ProgramFor(insts)), Budget: insts}, DefaultConfig().WithStrategy(k, false))
}

// firstSteer steps an issue-time pipeline to the first cycle in which
// steering will build its state. The head of the steering window is then
// the program's first instruction, which has no producer.
func firstSteer(t *testing.T) *Pipeline {
	t.Helper()
	p := gzipPipeline(t, core.IssueTime)
	for !(p.steerQ.len() > 0 && p.st.e[uint32(p.steerQ.front())].dispatchReady <= p.now) {
		if p.done() {
			t.Fatal("the run ended before steering dispatched anything")
		}
		step(p)
	}
	return p
}

// TestSteerPanicsWithoutTarget: with every station open, steerTarget finds
// no cluster only if the load balance's occupancy bound excludes them all,
// which a live count no window can reach does.
func TestSteerPanicsWithoutTarget(t *testing.T) {
	p := firstSteer(t)
	for c := range p.cl {
		p.cl[c].live = 1 << 30
	}
	wantInvariant(t, errNoSteerTarget, p.cycle)
}

// TestSteerPanicsOnFullOpenStation: a station whose count says full while
// the full mask says open gets an open bit that insertRS then refuses.
func TestSteerPanicsOnFullOpenStation(t *testing.T) {
	p := firstSteer(t)
	for c := range p.cl {
		for rs := range p.cl[c].count {
			p.cl[c].count[rs] = p.cfg.RS.Entries
		}
	}
	wantInvariant(t, errOpenStationFull, p.cycle)
}

// TestLoadPanicsBeforeOlderStoreResult: a load whose older, unretired store
// has a result later than the load's address stage cannot have been let
// through by the store watermark; issuing it panics.
func TestLoadPanicsBeforeOlderStoreResult(t *testing.T) {
	p := gzipPipeline(t, core.FDRT)
	st := &p.st
	for !p.done() {
		for idx := range st.e {
			e := &st.e[idx]
			if e.flags&(fInRS|fIsLoad) != fInRS|fIsLoad || e.prevStore == noID {
				continue
			}
			s := &st.e[st.index(e.prevStore)]
			if s.flags&(fIssued|fRetired) != fIssued {
				continue
			}
			s.resultAt = p.now + 1000
			wantInvariant(t, errLateOlderStore, func() { p.doIssue(e, &p.cl[e.cluster], cluster.FUMem) })
			return
		}
		step(p)
	}
	t.Fatal("no load ever waited in a station behind an issued, unretired store")
}
