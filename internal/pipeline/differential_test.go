package pipeline

// Differential test: the timing model must be a pure replay of the
// functional emulator. For every workload kernel we execute the program on a
// standalone emu.Machine and through the full pipeline (which drives its own
// emulator instance), then require
//
//   - the committed-instruction stream consumed by the pipeline to be
//     byte-identical to the standalone run,
//   - the pipeline to retire exactly that stream, in program order, with
//     contiguous sequence numbers (any reordering or dropped/duplicated
//     retirement in the hot path shows up here), and
//   - identical final architectural state: register file, OUT checksum, and
//     a full memory checksum.

import (
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/workload"
)

// recordingStream tees every committed record handed to the pipeline.
type recordingStream struct {
	src  emu.Stream
	recs []emu.Committed
}

func (r *recordingStream) NextInto(c *emu.Committed) bool {
	if !r.src.NextInto(c) {
		return false
	}
	r.recs = append(r.recs, *c)
	return true
}

// referenceRun executes p to architectural completion on a bare machine.
func referenceRun(t *testing.T, p *isa.Program) (*emu.Machine, []emu.Committed) {
	t.Helper()
	m := emu.New(p)
	var recs []emu.Committed
	for {
		c, ok := m.Next()
		if !ok {
			break
		}
		recs = append(recs, c)
		if len(recs) > 50_000_000 {
			t.Fatal("reference run did not halt")
		}
	}
	if err := m.Err(); err != nil {
		t.Fatalf("reference run faulted: %v", err)
	}
	return m, recs
}

func TestDifferentialAllKernels(t *testing.T) {
	cfgs := map[string]Config{
		"base":      DefaultConfig().WithStrategy(core.Base, false),
		"issuetime": DefaultConfig().WithStrategy(core.IssueTime, false),
		"fdrt":      DefaultConfig().WithStrategy(core.FDRT, false),
	}
	for _, bm := range workload.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			prog := bm.Build(1)
			ref, wantRecs := referenceRun(t, prog)
			for name, cfg := range cfgs {
				pm := emu.New(prog)
				tee := &recordingStream{src: pm}
				var retired []core.RetireInfo
				cfg.RetireHook = func(info core.RetireInfo) {
					retired = append(retired, info)
				}
				stats := New(tee, cfg).Run()

				if len(tee.recs) != len(wantRecs) {
					t.Fatalf("%s: pipeline consumed %d records, reference committed %d",
						name, len(tee.recs), len(wantRecs))
				}
				for i := range wantRecs {
					if tee.recs[i] != wantRecs[i] {
						t.Fatalf("%s: committed record %d diverged:\n pipeline  %+v\n reference %+v",
							name, i, tee.recs[i], wantRecs[i])
					}
				}
				if stats.Retired != uint64(len(wantRecs)) {
					t.Fatalf("%s: retired %d of %d committed instructions",
						name, stats.Retired, len(wantRecs))
				}
				if len(retired) != len(wantRecs) {
					t.Fatalf("%s: retire hook saw %d instructions, want %d",
						name, len(retired), len(wantRecs))
				}
				for i, info := range retired {
					if info.Rec.Seq != uint64(i) {
						t.Fatalf("%s: retirement %d has seq %d (out of order)", name, i, info.Rec.Seq)
					}
					if info.Rec.PC != wantRecs[i].PC {
						t.Fatalf("%s: retirement %d at pc %#x, reference %#x",
							name, i, info.Rec.PC, wantRecs[i].PC)
					}
				}
				if pm.Regs != ref.Regs {
					t.Fatalf("%s: final register files diverge", name)
				}
				if pm.OutHash != ref.OutHash {
					t.Fatalf("%s: OUT checksum %#x != reference %#x", name, pm.OutHash, ref.OutHash)
				}
				if got, want := pm.Mem.Checksum(), ref.Mem.Checksum(); got != want {
					t.Fatalf("%s: memory checksum %#x != reference %#x", name, got, want)
				}
			}
		})
	}
}
