package pipeline

import (
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
)

// TestWideMachineRetiresExactStream runs a kernel on a machine wider than
// any word-sized fast path: 4 clusters × 40 issue slots with traces of up to
// 160 instructions. That takes every path above 64 slots — the trace
// cache's conditional-branch scan for lines longer than a mask word,
// CheckSlotIndices' map for more issue slots than a mask word, and
// reservation-station windows longer than a ready-mask word. Under each
// strategy the run must halt without tripping the no-progress watchdog and
// retire exactly the emulator's stream, and a Reset back to the default
// configuration must then match a new pipeline.
func TestWideMachineRetiresExactStream(t *testing.T) {
	prog := resetProg(t, "vpr")
	for _, k := range []core.StrategyKind{core.Base, core.IssueTime, core.Friendly, core.FDRT} {
		cfg := DefaultConfig().WithStrategy(k, false)
		cfg.Geom.Clusters, cfg.Geom.Width = 4, 40
		cfg.Trace.MaxLen = 160
		cfg.MaxInsts = resetInsts

		ref := emu.New(prog)
		var want emu.Committed
		var p *Pipeline
		retired, diverged, window := 0, false, 0
		cfg.RetireHook = func(ri core.RetireInfo) {
			if !ref.NextInto(&want) || ri.Rec != want {
				diverged = true
			}
			retired++
			for c := range p.cl {
				window = max(window, len(p.cl[c].ids))
			}
		}
		p = New(emu.New(prog), cfg)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%v: the wide run failed: %v", k, r)
				}
			}()
			p.Run()
		}()
		if diverged || retired != resetInsts {
			t.Errorf("%v: retired %d of %d records, diverged from the emulator: %v", k, retired, resetInsts, diverged)
		}
		longest := 0
		for _, set := range p.tc.Dump() {
			for _, line := range set {
				if line != nil {
					longest = max(longest, line.Len())
				}
			}
		}
		if longest <= 64 || window <= 64 {
			t.Errorf("%v: setup: longest trace line %d slots, longest window %d entries; want both over 64", k, longest, window)
		}

		def := DefaultConfig().WithStrategy(k, false)
		requireSameStats(t, k.String()+" after the wide run", freshStats(prog, def), reusedStats(p, prog, def))
	}
}
