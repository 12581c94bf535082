package core

// Tests and a benchmark for the fill unit's Table 5 assignment pass: a
// rebuild repeats the first build exactly, pending chain designations are
// consumed by the build that places them, and the per-trace scratch carries
// nothing from one trace into the next.

import (
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/trace"
)

// feedBlock retires one full 16-instruction block starting at startPC. Dest
// registers follow rcBase so two blocks with different rcBase are different
// static code at the same addresses.
func feedBlock(f *FillUnit, seq *uint64, startPC uint64, rcBase int) {
	for j := 0; j < 16; j++ {
		f.Retire(&RetireInfo{Rec: inst(*seq, startPC+uint64(j)*4, isa.ZeroReg, isa.ZeroReg, isa.R(1+(rcBase+j)%20))})
		*seq++
	}
}

// snapshotAssignment captures the per-slot outputs of the last build of the
// line at startPC.
func snapshotAssignment(tc *trace.Cache, t *testing.T, startPC uint64) []trace.Slot {
	t.Helper()
	tr := lookup(tc, startPC)
	if tr == nil {
		t.Fatalf("no line installed at %#x", startPC)
	}
	out := make([]trace.Slot, len(tr.Slots))
	copy(out, tr.Slots)
	return out
}

// TestAssignRebuildMatchesFirstBuild rebuilds the same line twice under
// every strategy with an assignment walk and checks the second build is
// slot-for-slot identical to the first, including SlotIndex, Cluster, and
// Profile, and that it adds exactly the first build's option histogram.
func TestAssignRebuildMatchesFirstBuild(t *testing.T) {
	for _, k := range []StrategyKind{Friendly, FriendlyMiddle, FDRT, FDRTNoPin} {
		t.Run(k.String(), func(t *testing.T) {
			tc := trace.NewCache(trace.DefaultConfig())
			f := NewFillUnit(testConfig(k), tc)
			var seq uint64

			feedBlock(f, &seq, 0x1000, 3)
			first := snapshotAssignment(tc, t, 0x1000)
			statsAfterFirst := f.S

			feedBlock(f, &seq, 0x1000, 3)
			second := snapshotAssignment(tc, t, 0x1000)

			for i := range first {
				a, b := &first[i], &second[i]
				if a.Cluster != b.Cluster || a.SlotIndex != b.SlotIndex || a.Profile != b.Profile {
					t.Errorf("slot %d: first {cl %d slot %d prof %+v} vs rebuild {cl %d slot %d prof %+v}",
						i, a.Cluster, a.SlotIndex, a.Profile, b.Cluster, b.SlotIndex, b.Profile)
				}
			}
			firstN := statsAfterFirst.OptionA + statsAfterFirst.OptionB + statsAfterFirst.OptionC +
				statsAfterFirst.OptionD + statsAfterFirst.OptionE + statsAfterFirst.Skipped
			bothN := f.S.OptionA + f.S.OptionB + f.S.OptionC + f.S.OptionD + f.S.OptionE + f.S.Skipped
			if bothN != 2*firstN {
				t.Errorf("option histogram after the rebuild %d, want exactly double the first build's %d", bothN, firstN)
			}
		})
	}
}

// TestAssignConsumesPendingDesignation: a pending designation on one of a
// line's PCs is written into that slot's profile by the next build of the
// line and consumed there, so the build after it sees the profile the
// retiring instance carried again (zero for these synthetic instances).
func TestAssignConsumesPendingDesignation(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	var seq uint64
	leader := trace.Profile{Role: trace.RoleLeader, ChainCluster: 2}

	feedBlock(f, &seq, 0x1000, 3)
	f.Chains().Set(0x1000+4, leader)
	feedBlock(f, &seq, 0x1000, 3)
	if got := snapshotAssignment(tc, t, 0x1000)[1].Profile; got != leader {
		t.Fatalf("slot 1 profile %+v, want the pending designation %+v", got, leader)
	}
	if _, ok := f.Chains().Take(0x1000 + 4); ok {
		t.Fatal("assignment left the pending designation unconsumed")
	}
	feedBlock(f, &seq, 0x1000, 3)
	if got := snapshotAssignment(tc, t, 0x1000)[1].Profile; got != (trace.Profile{}) {
		t.Errorf("slot 1 profile %+v after the designation was consumed, want the zero profile", got)
	}
}

// TestAssignShrinkAfterLongTrace: the assignment scratch (assigned,
// capacity, prods, consumers, order, nextSlot) is sized per trace; a
// shorter trace built right after a full 16-slot one must see none of the
// longer build's state. The audit shows every scratch slice is truncated and
// rebuilt to the exact slot count, and this test pins that: the short line's
// assignment must be identical to what a fill unit that never saw the long
// trace produces, under every strategy, on its first build and on a
// rebuild.
func TestAssignShrinkAfterLongTrace(t *testing.T) {
	buildShort := func(f *FillUnit, seq *uint64) {
		// 6 instructions: 5 ALU plus a register-indirect jump, which always
		// terminates construction.
		for j := 0; j < 5; j++ {
			f.Retire(&RetireInfo{Rec: inst(*seq, 0x2000+uint64(j)*4, isa.ZeroReg, isa.ZeroReg, isa.R(1+j))})
			*seq++
		}
		f.Retire(&RetireInfo{Rec: decoded(emu.Committed{
			Seq: *seq, PC: 0x2000 + 5*4,
			Inst:  isa.Inst{Op: isa.JMP, Ra: isa.R(7)},
			Taken: true, NextPC: 0x2000,
		})})
		*seq++
	}
	for _, k := range []StrategyKind{Base, IssueTime, Friendly, FriendlyMiddle, FDRT, FDRTNoPin} {
		t.Run(k.String(), func(t *testing.T) {
			// Control: only ever builds the short trace.
			ctc := trace.NewCache(trace.DefaultConfig())
			cf := NewFillUnit(testConfig(k), ctc)
			var cseq uint64
			buildShort(cf, &cseq)
			want := snapshotAssignment(ctc, t, 0x2000)

			// Subject: a full-length line first, then the same short trace
			// twice.
			tc := trace.NewCache(trace.DefaultConfig())
			f := NewFillUnit(testConfig(k), tc)
			var seq uint64
			feedBlock(f, &seq, 0x1000, 3)
			for round := 0; round < 2; round++ {
				buildShort(f, &seq)
				got := snapshotAssignment(tc, t, 0x2000)
				if len(got) != len(want) {
					t.Fatalf("round %d: short trace has %d slots, control %d", round, len(got), len(want))
				}
				for i := range want {
					a, b := &want[i], &got[i]
					if a.Cluster != b.Cluster || a.SlotIndex != b.SlotIndex || a.Profile != b.Profile {
						t.Errorf("round %d slot %d: control {cl %d slot %d prof %+v}, after-long {cl %d slot %d prof %+v}",
							round, i, a.Cluster, a.SlotIndex, a.Profile, b.Cluster, b.SlotIndex, b.Profile)
					}
				}
			}
		})
	}
}

// BenchmarkAssign measures the fill unit's per-trace cost under FDRT as the
// pipeline pays it: one full 16-instruction line retired and built per op
// through RetireSlot/CommitRetire, with operands decoded once beforehand
// (the emulator's records carry them), the Table 5 walk included.
func BenchmarkAssign(b *testing.B) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	recs := make([]RetireInfo, 16)
	for j := range recs {
		recs[j].Rec = inst(uint64(j), 0x1000+uint64(j)*4, isa.ZeroReg, isa.ZeroReg, isa.R(1+(3+j)%20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			*f.RetireSlot() = recs[j]
			f.CommitRetire()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trace")
}

// retireLoop retires a loop body of lines 16-instruction lines once, each
// instruction's critical input forwarded from another trace (the previous
// pass), so every pass makes chain designations and consumes them.
func retireLoop(f *FillUnit, seq *uint64, lines int) {
	for l := 0; l < lines; l++ {
		for j := 0; j < 16; j++ {
			pc := 0x1000 + uint64(l*0x100+j*4)
			f.Retire(&RetireInfo{
				Rec:                 inst(*seq, pc, isa.R(1+j%8), isa.R(1+(j+3)%8), isa.R(1+(j+1)%8)),
				Cluster:             j % 4,
				CritSrc:             CritRS1,
				CritForwarded:       true,
				CritProducerPC:      pc ^ 4,
				CritProducerSeq:     *seq - 16*uint64(lines),
				CritProducerCluster: (j + l) % 4,
				CritInterTrace:      true,
			})
			*seq++
		}
	}
}

// TestFillUnitSteadyStateAllocs: once a loop's lines are in the trace cache,
// rebuilding them — retire, chain feedback, assignment, install and the
// displaced line's recycling — allocates nothing, under every strategy.
func TestFillUnitSteadyStateAllocs(t *testing.T) {
	for _, k := range Strategies() {
		f := NewFillUnit(testConfig(k), trace.NewCache(trace.DefaultConfig()))
		seq := uint64(1 << 20)
		for i := 0; i < 10; i++ {
			retireLoop(f, &seq, 3)
		}
		// Many passes per measured run: AllocsPerRun divides by its run
		// count in integer arithmetic.
		if allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000; i++ {
				retireLoop(f, &seq, 3)
			}
		}); allocs != 0 {
			t.Errorf("%v: 1000 steady-state passes over 3 lines allocated %.0f times, want 0", k, allocs)
		}
		if f.S.TracesBuilt == 0 || (k.UsesChains() && f.S.FollowersCreated == 0) {
			t.Errorf("%v: the loop built %d traces and %d chain followers", k, f.S.TracesBuilt, f.S.FollowersCreated)
		}
	}
}

// TestFillUnitRecyclesFullSizeLines: Reset moves the cache's lines into the
// recycled-line pool, except a line whose slot array is smaller than
// MaxLen, and drops the pool when the trace configuration changes; a build
// takes its line from the pool.
func TestFillUnitRecyclesFullSizeLines(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	retireN(f, 16, 0x1000)
	full := lookup(tc, 0x1000)
	tc.Install(&trace.Trace{StartPC: 0x2000, Slots: make([]trace.Slot, 1, 8)})
	f.Reset(testConfig(FDRT), tc)
	if len(f.free) != 1 || f.free[0] != full {
		t.Fatalf("pool after Reset holds %d lines, want only the full-size line", len(f.free))
	}
	retireN(f, 16, 0x1000)
	if lookup(tc, 0x1000) != full || len(f.free) != 0 {
		t.Error("the build did not take its line from the pool")
	}
	f.Reset(testConfig(FDRT), tc)
	cfg := testConfig(FDRT)
	cfg.Trace.MaxBlocks = 2
	f.Reset(cfg, tc)
	if f.free != nil {
		t.Errorf("pool holds %d lines after the trace configuration changed", len(f.free))
	}
}
