package core

// Tests and benchmarks for the fill unit's assignment memo: replay
// must be indistinguishable from the fresh walk, invalidation must fire on
// every input the walk reads, and the hit path must be measurably cheaper
// than the walk it replaces (BenchmarkAssign).

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

// TestAssignMemoReplayMatchesFreshWalk rebuilds the same line twice under
// every memoizable strategy and checks the replayed assignment (second
// build, memo hit) is slot-for-slot identical to the fresh walk (first
// build), including SlotIndex, Cluster, and Profile, and that the
// option-histogram deltas repeat exactly.
func TestAssignMemoReplayMatchesFreshWalk(t *testing.T) {
	for _, k := range []StrategyKind{Friendly, FriendlyMiddle, FDRT, FDRTNoPin} {
		t.Run(k.String(), func(t *testing.T) {
			tc := trace.NewCache(trace.DefaultConfig())
			f := NewFillUnit(testConfig(k), tc)
			var seq uint64

			feedBlock(f, &seq, 0x1000, 3)
			fresh := snapshotAssignment(tc, t, 0x1000)
			statsAfterFirst := f.S

			feedBlock(f, &seq, 0x1000, 3)
			replayed := snapshotAssignment(tc, t, 0x1000)

			hits, misses := f.MemoStats()
			if hits != 1 || misses != 1 {
				t.Fatalf("memo hits=%d misses=%d, want 1 hit (replay) and 1 miss (first build)", hits, misses)
			}
			for i := range fresh {
				a, b := &fresh[i], &replayed[i]
				if a.Cluster != b.Cluster || a.SlotIndex != b.SlotIndex || a.Profile != b.Profile {
					t.Errorf("slot %d: fresh {cl %d slot %d prof %+v} vs replay {cl %d slot %d prof %+v}",
						i, a.Cluster, a.SlotIndex, a.Profile, b.Cluster, b.SlotIndex, b.Profile)
				}
			}
			// The replay applies the same histogram deltas the walk produced.
			firstA := statsAfterFirst.OptionA + statsAfterFirst.OptionB + statsAfterFirst.OptionC +
				statsAfterFirst.OptionD + statsAfterFirst.OptionE + statsAfterFirst.Skipped
			secondA := f.S.OptionA + f.S.OptionB + f.S.OptionC + f.S.OptionD + f.S.OptionE + f.S.Skipped
			if secondA != 2*firstA {
				t.Errorf("option histogram after replay %d, want exactly double the fresh walk's %d", secondA, firstA)
			}
		})
	}
}

// TestAssignMemoInvalidation checks the fingerprint misses whenever an input
// of the walk changes: different static code at the same start PC, and a
// pending chain designation on one of the line's PCs.
func TestAssignMemoInvalidation(t *testing.T) {
	tc := trace.NewCache(trace.DefaultConfig())
	f := NewFillUnit(testConfig(FDRT), tc)
	var seq uint64

	feedBlock(f, &seq, 0x1000, 3)
	feedBlock(f, &seq, 0x1000, 4) // same StartPC, different code
	if hits, misses := f.MemoStats(); hits != 0 || misses != 2 {
		t.Fatalf("changed code replayed a stale assignment: hits=%d misses=%d", hits, misses)
	}

	// A pending designation on one of the line's PCs changes the overlay
	// profile the walk reads, so the next rebuild must miss...
	f.Chains().Set(0x1000+4, trace.Profile{Role: trace.RoleLeader, ChainCluster: 2})
	feedBlock(f, &seq, 0x1000, 4)
	if hits, misses := f.MemoStats(); hits != 0 || misses != 3 {
		t.Fatalf("pending designation did not invalidate: hits=%d misses=%d", hits, misses)
	}
	// ...and the designation must have been consumed by that build.
	if _, ok := f.Chains().Take(0x1000 + 4); ok {
		t.Fatal("assignment left the pending designation unconsumed")
	}

	// The consumed designation is itself an input change: these synthetic
	// instances carry no profile bits, so the next rebuild sees a different
	// overlay (zero profile, not the leader bits) and must miss again. The
	// rebuild after that is steady state and hits.
	feedBlock(f, &seq, 0x1000, 4)
	feedBlock(f, &seq, 0x1000, 4)
	if hits, misses := f.MemoStats(); hits != 1 || misses != 4 {
		t.Fatalf("steady rebuild should hit before the flush: hits=%d misses=%d", hits, misses)
	}

	// Flush drops the memo outright.
	f.Flush()
	feedBlock(f, &seq, 0x1000, 4)
	if hits, misses := f.MemoStats(); hits != 1 || misses != 5 {
		t.Fatalf("flush did not drop the memo: hits=%d misses=%d", hits, misses)
	}
}

// TestAssignShrinkAfterLongTrace: the assignment scratch (assigned,
// capacity, prods, consumers, order, nextSlot, and the memo entry's cached
// vectors) is sized per trace; a shorter trace built right after a full
// 16-slot one must see none of the longer build's state. The audit shows
// every scratch slice is truncated and rebuilt to the exact slot count, and
// this test pins that: the short line's assignment must be identical to
// what a fill unit that never saw the long trace produces, under every
// strategy, on both the fresh-walk and memo-replay paths.
func TestAssignShrinkAfterLongTrace(t *testing.T) {
	buildShort := func(f *FillUnit, seq *uint64) {
		// 6 instructions: 5 ALU plus a register-indirect jump, which always
		// terminates construction (no Flush — Flush would drop the memo and
		// keep the replay path out of round 2).
		for j := 0; j < 5; j++ {
			f.Retire(&RetireInfo{Rec: inst(*seq, 0x2000+uint64(j)*4, isa.ZeroReg, isa.ZeroReg, isa.R(1+j))})
			*seq++
		}
		f.Retire(&RetireInfo{Rec: emu.Committed{
			Seq: *seq, PC: 0x2000 + 5*4,
			Inst:  isa.Inst{Op: isa.JMP, Ra: isa.R(7)},
			Taken: true, NextPC: 0x2000,
		}})
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

			// Subject: a full-length line first, then the same short trace —
			// twice, so the second build exercises the memo replay path for
			// the memoizable strategies.
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
			if f.memoizable() {
				if hits, _ := f.MemoStats(); hits == 0 {
					t.Error("second short build did not replay the memo")
				}
			}
		})
	}
}

// BenchmarkAssign measures the fill unit's per-trace cost on the memo hit
// path (the same hot line rebuilt unchanged — the steady state the reuse
// literature predicts) against the miss path (the line's code differs every
// build, forcing the full Table-5 walk each time).
func BenchmarkAssign(b *testing.B) {
	run := func(b *testing.B, vary bool) {
		tc := trace.NewCache(trace.DefaultConfig())
		f := NewFillUnit(testConfig(FDRT), tc)
		var seq uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rcBase := 3
			if vary {
				// Rotate among 8 variants: the memo holds only the previous
				// build, so every rebuild misses.
				rcBase = i % 8
			}
			feedBlock(f, &seq, 0x1000, rcBase)
		}
		b.StopTimer()
		hits, misses := f.MemoStats()
		if vary && hits > uint64(b.N)/10 {
			b.Fatalf("miss benchmark is hitting the memo (%d hits / %d builds)", hits, misses)
		}
		if !vary && misses > 1+uint64(b.N)/10 {
			b.Fatalf("hit benchmark is missing the memo (%d misses / %d builds)", misses, hits)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trace")
	}
	b.Run("hit", func(b *testing.B) { run(b, false) })
	b.Run("miss", func(b *testing.B) { run(b, true) })
}
