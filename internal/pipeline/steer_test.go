package pipeline

import (
	"testing"

	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/workload"
)

// TestSteerOpenMasksMatchStations steps issue-time-steered runs cycle by
// cycle and checks the state dispatch's steering works from against a
// recompute from the station counters. After every cycle, bit rs of a
// cluster's full-station mask is set iff station rs holds RS.Entries
// instructions, and rsLive equals the cluster's summed station occupancy
// (the fallback's load measure). After every cycle in which dispatch built
// its steering state (the head of the steering window was dispatch-ready),
// bit rs of a cluster's open mask is set iff the cluster has steering
// budget left and station rs has a free entry and a free write port. A
// tight station geometry makes stations fill and write ports run out
// mid-cycle.
func TestSteerOpenMasksMatchStations(t *testing.T) {
	const insts = 8_000
	tight := DefaultConfig().WithStrategy(core.IssueTime, false)
	tight.RS = cluster.RSConfig{Entries: 2, WritePorts: 1}
	for _, cfg := range []Config{DefaultConfig().WithStrategy(core.IssueTime, false), tight} {
		for _, name := range []string{"gzip", "mcf", "eon"} {
			bm, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			p := New(&emu.LimitStream{S: emu.New(bm.ProgramFor(insts)), Budget: insts}, cfg)
			closed := 0 // cycle-ends with some station closed in a budgeted cluster
			full := 0   // cycle-ends with some station full
			for !p.done() {
				// Only dispatch takes from the steering window, and no stage
				// before it in the cycle changes the window's head.
				built := p.steerQ.len() > 0 && p.st.e[uint32(p.steerQ.front())].dispatchReady <= p.now
				p.cycle()
				for c := 0; c < p.geom.Clusters; c++ {
					var wantFull, wantOpen uint8
					occ := 0
					for rs := cluster.RSKind(0); rs < cluster.NumRSKinds; rs++ {
						occ += p.rsCount[c][rs]
						if p.rsCount[c][rs] >= cfg.RS.Entries {
							wantFull |= 1 << rs
						}
						if p.scr.clusterBudget[c] > 0 && p.rsCount[c][rs] < cfg.RS.Entries && *p.wu(c, rs) < cfg.RS.WritePorts {
							wantOpen |= 1 << rs
						}
					}
					if got := p.rsFull[c]; got != wantFull {
						t.Fatalf("%s RS %+v cycle %d cluster %d: full mask %05b, stations say %05b", name, cfg.RS, p.now, c, got, wantFull)
					}
					if wantFull != 0 {
						full++
					}
					if p.rsLive[c] != occ {
						t.Fatalf("%s RS %+v cycle %d cluster %d: rsLive %d, stations hold %d", name, cfg.RS, p.now, c, p.rsLive[c], occ)
					}
					if !built {
						continue
					}
					if got := p.scr.open[c]; got != wantOpen {
						t.Fatalf("%s RS %+v cycle %d cluster %d: open mask %05b, stations say %05b", name, cfg.RS, p.now, c, got, wantOpen)
					}
					if p.scr.clusterBudget[c] > 0 && wantOpen != allStations {
						closed++
					}
				}
				p.now++
			}
			if p.Retired() != insts {
				t.Fatalf("%s RS %+v: retired %d, want %d", name, cfg.RS, p.Retired(), insts)
			}
			if closed == 0 || full == 0 {
				t.Errorf("%s RS %+v: %d closed-station and %d full-station cycle-ends; the check saw no mask updates", name, cfg.RS, closed, full)
			}
		}
	}
}
