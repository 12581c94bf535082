package pipeline

import (
	"testing"

	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/workload"
)

// TestSteerOpenMasksMatchStations steps runs cycle by cycle and checks the
// per-cluster state dispatch works from against a recompute from the
// station counters. After every cycle, bit rs of a cluster's full-station
// mask is set iff station rs holds RS.Entries instructions, and the
// cluster's live count equals its summed station occupancy (issue-time
// steering's load measure). Under issue-time steering, after every cycle
// in which dispatch built its steering state (the head of the steering
// window was dispatch-ready), bit rs of a cluster's open mask is set iff
// the cluster has steering budget left and station rs has a free entry and
// a free write port. Each strategy runs with the default stations and with
// a tight geometry that makes stations fill and write ports run out
// mid-cycle.
func TestSteerOpenMasksMatchStations(t *testing.T) {
	const insts = 8_000
	var cfgs []Config
	for _, k := range []core.StrategyKind{core.IssueTime, core.FDRT} {
		tight := DefaultConfig().WithStrategy(k, false)
		tight.RS = cluster.RSConfig{Entries: 2, WritePorts: 1}
		cfgs = append(cfgs, DefaultConfig().WithStrategy(k, false), tight)
	}
	for _, cfg := range cfgs {
		steers := cfg.Strategy.SteersAtIssue()
		for _, name := range []string{"gzip", "mcf", "eon"} {
			bm, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			what := cfg.Strategy.String() + " " + name
			p := New(&emu.LimitStream{S: emu.New(bm.ProgramFor(insts)), Budget: insts}, cfg)
			closed := 0 // cycle-ends with some station closed in a budgeted cluster
			full := 0   // cycle-ends with some station full
			for !p.done() {
				// Only dispatch takes from the steering window, and no stage
				// before it in the cycle changes the window's head.
				built := steers && p.steerQ.len() > 0 && p.st.e[uint32(p.steerQ.front())].dispatchReady <= p.now
				p.cycle()
				for c := range p.cl {
					cs := &p.cl[c]
					var wantFull, wantOpen uint8
					occ := 0
					for rs := cluster.RSKind(0); rs < cluster.NumRSKinds; rs++ {
						occ += cs.count[rs]
						if cs.count[rs] >= cfg.RS.Entries {
							wantFull |= 1 << rs
						}
						if cs.budget > 0 && cs.count[rs] < cfg.RS.Entries && cs.writeUsed[rs] < cfg.RS.WritePorts {
							wantOpen |= 1 << rs
						}
					}
					if cs.full != wantFull {
						t.Fatalf("%s RS %+v cycle %d cluster %d: full mask %05b, stations say %05b", what, cfg.RS, p.now, c, cs.full, wantFull)
					}
					if wantFull != 0 {
						full++
					}
					if cs.live != occ {
						t.Fatalf("%s RS %+v cycle %d cluster %d: live count %d, stations hold %d", what, cfg.RS, p.now, c, cs.live, occ)
					}
					if !built {
						continue
					}
					if cs.open != wantOpen {
						t.Fatalf("%s RS %+v cycle %d cluster %d: open mask %05b, stations say %05b", what, cfg.RS, p.now, c, cs.open, wantOpen)
					}
					if cs.budget > 0 && wantOpen != allStations {
						closed++
					}
				}
				p.now++
			}
			if p.Retired() != insts {
				t.Fatalf("%s RS %+v: retired %d, want %d", what, cfg.RS, p.Retired(), insts)
			}
			if full == 0 || steers && closed == 0 {
				t.Errorf("%s RS %+v: %d closed-station and %d full-station cycle-ends; the check saw no mask updates", what, cfg.RS, closed, full)
			}
		}
	}
}
