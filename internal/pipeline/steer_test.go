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
// recompute from the station counters: after every cycle, bit rs of a
// cluster's open mask is set iff the cluster has steering budget left and
// station rs has a free entry and a free write port, and rsLive equals the
// cluster's summed station occupancy (the fallback's load measure). A tight
// station geometry makes stations fill and write ports run out mid-cycle.
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
			for !p.done() {
				worked := p.cycle()
				for c := 0; c < p.geom.Clusters; c++ {
					var want uint8
					occ := 0
					for rs := cluster.RSKind(0); rs < cluster.NumRSKinds; rs++ {
						occ += p.rsCount[c][rs]
						if p.scr.clusterBudget[c] > 0 && p.rsCount[c][rs] < cfg.RS.Entries && *p.wu(c, rs) < cfg.RS.WritePorts {
							want |= 1 << rs
						}
					}
					if got := p.scr.open[c]; got != want {
						t.Fatalf("%s RS %+v cycle %d cluster %d: open mask %05b, stations say %05b", name, cfg.RS, p.now, c, got, want)
					}
					if p.rsLive[c] != occ {
						t.Fatalf("%s RS %+v cycle %d cluster %d: rsLive %d, stations hold %d", name, cfg.RS, p.now, c, p.rsLive[c], occ)
					}
					if p.scr.clusterBudget[c] > 0 && want != 1<<cluster.NumRSKinds-1 {
						closed++
					}
				}
				if worked {
					p.now++
				} else {
					p.now = p.nextEvent()
				}
			}
			if p.Retired() != insts {
				t.Fatalf("%s RS %+v: retired %d, want %d", name, cfg.RS, p.Retired(), insts)
			}
			if closed == 0 {
				t.Errorf("%s RS %+v: no station ever closed; the check saw no mask updates", name, cfg.RS)
			}
		}
	}
}
