package core

import "ctcp/internal/trace"

// This file implements the fill unit's assignment memo. Trace reuse is
// dominated by a small set of recurring hot lines, so the full Table-5 walk
// (dynamic criticality classification, chain arbitration, per-cluster
// capacity scan, Friendly fallback) usually recomputes exactly what it
// computed the last time the same line was built. The memo keys each built
// line by its StartPC in a dense pcmap.Map and fingerprints every input the
// assignment pass actually reads; when a rebuilt line's fingerprint matches,
// the cached per-slot cluster vector, (possibly decayed) profiles, and
// option-histogram deltas are replayed instead of re-running the walk.
//
// The fingerprint covers, per slot: the PC and decoded instruction, the
// overlay profile the assignment would see (the pending chain designation if
// one exists — read with peek, without consuming it — else the profile the
// retiring instance carried), and, for the FDRT strategies, the relative
// index of the dynamic critical producer when it lies inside the trace.
// Given those inputs the walk is deterministic, so a fingerprint match means
// replaying the cached outputs is exact — including the chain-table side
// effect, which replay reproduces by consuming the same pending
// designations the fresh walk would have consumed. A designation set,
// changed, or consumed on one of the line's PCs between builds changes the
// peeked overlay and therefore misses; chain activity on unrelated PCs
// leaves the fingerprint (and the cached result's validity) untouched.
// This per-line fingerprint plays the role of the global profile epoch: it
// is "bumped" by exactly those updateChains writes that the line can
// observe.
//
// The memo is scratch, never serialized: Snapshot skips it, and Restore and
// Flush clear it (hygiene, not correctness — a stale entry can only be
// replayed after its fingerprint matches the restored state's inputs).
// Base and IssueTime use identity placement, which is already cheaper than
// a fingerprint probe, so only the four assignment strategies memoize.

// assignMemoEntry is one cached assignment result. The zero value is an
// absent entry (pcmap.Map contract); present distinguishes a stored result.
type assignMemoEntry struct {
	present bool
	n       uint16 // slot count, bounds-checks the cached vectors
	fp      uint64 // fingerprint of every input the walk reads
	// Per-slot outputs, logical order.
	clusters []int8
	profiles []trace.Profile
	// Option-histogram deltas (FillStats) the fresh walk produced.
	dA, dB, dC, dD, dE, dSkip uint32
}

// memoizable reports whether the configured strategy runs an assignment walk
// worth memoizing.
func (f *FillUnit) memoizable() bool {
	switch f.cfg.Strategy {
	case Friendly, FriendlyMiddle, FDRT, FDRTNoPin:
		return true
	}
	return false
}

// assignFP fingerprints every input of the assignment walk for tr (FNV-1a
// over the per-slot identity, overlay profile, and critical-producer shape).
func (f *FillUnit) assignFP(tr *trace.Trace, infos []RetireInfo) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	n := len(tr.Slots)
	lenMatch := len(infos) == n
	fdrt := f.cfg.Strategy == FDRT || f.cfg.Strategy == FDRTNoPin
	var seqBase uint64
	if lenMatch && n > 0 {
		seqBase = infos[0].Rec.Seq
	}
	h := uint64(fnvOffset)
	h = (h ^ uint64(n)) * fnvPrime
	if lenMatch {
		h = (h ^ 1) * fnvPrime
	}
	for i := range tr.Slots {
		s := &tr.Slots[i]
		h = (h ^ s.PC) * fnvPrime
		inst := &s.Inst
		w := uint64(uint8(inst.Op)) |
			uint64(uint8(inst.Ra))<<8 |
			uint64(uint8(inst.Rb))<<16 |
			uint64(uint8(inst.Rc))<<24
		if inst.UseImm {
			w |= 1 << 32
		}
		h = (h ^ w) * fnvPrime
		h = (h ^ uint64(inst.Imm)) * fnvPrime
		// The overlay profile the assignment pass would start from.
		var prof trace.Profile
		if pend, ok := f.chains.peek(s.PC); ok {
			prof = pend
		} else if lenMatch {
			prof = infos[i].Profile
		}
		h = (h ^ (uint64(prof.Role)<<8 | uint64(prof.ChainCluster))) * fnvPrime
		if fdrt && lenMatch {
			// Relative index of the dynamic critical producer when it lies
			// inside this trace (the only shape fdrtAssign distinguishes);
			// all-ones marks "none / outside".
			rel := ^uint64(0)
			inf := &infos[i]
			if inf.CritSrc != CritNone {
				if seq := inf.CritProducerSeq; seq >= seqBase && seq < seqBase+uint64(n) {
					if j := seq - seqBase; infos[j].Rec.Seq == seq && j < uint64(i) {
						rel = j
					}
				}
			}
			h = (h ^ rel) * fnvPrime
		}
	}
	return h
}

// replayAssign applies a cached assignment result to tr, reproducing the
// fresh walk's outputs and side effects: pending designations on the line's
// PCs are consumed (their values are part of the matched fingerprint), the
// cached cluster vector and profiles are written back, slot indices are
// re-derived with the same per-cluster counters materialize uses, and the
// option-histogram deltas are re-applied.
func (f *FillUnit) replayAssign(tr *trace.Trace, e *assignMemoEntry) {
	g := f.cfg.Geom
	for c := range f.nextSlot {
		f.nextSlot[c] = 0
	}
	for i := range tr.Slots {
		s := &tr.Slots[i]
		f.chains.Take(s.PC)
		c := int(e.clusters[i])
		s.Profile = e.profiles[i]
		s.Cluster = c
		s.SlotIndex = c*g.Width + f.nextSlot[c]
		f.nextSlot[c]++
	}
	f.S.OptionA += uint64(e.dA)
	f.S.OptionB += uint64(e.dB)
	f.S.OptionC += uint64(e.dC)
	f.S.OptionD += uint64(e.dD)
	f.S.OptionE += uint64(e.dE)
	f.S.Skipped += uint64(e.dSkip)
}

// storeAssign records the outputs of a fresh assignment walk into e. The
// entry's slices are reused across stores, so steady-state rebuilds of a
// line allocate nothing.
func (f *FillUnit) storeAssign(tr *trace.Trace, e *assignMemoEntry, fp uint64, before *FillStats) {
	e.present = true
	e.n = uint16(len(tr.Slots))
	e.fp = fp
	e.clusters = e.clusters[:0]
	e.profiles = e.profiles[:0]
	for i := range tr.Slots {
		e.clusters = append(e.clusters, int8(tr.Slots[i].Cluster))
		e.profiles = append(e.profiles, tr.Slots[i].Profile)
	}
	e.dA = uint32(f.S.OptionA - before.OptionA)
	e.dB = uint32(f.S.OptionB - before.OptionB)
	e.dC = uint32(f.S.OptionC - before.OptionC)
	e.dD = uint32(f.S.OptionD - before.OptionD)
	e.dE = uint32(f.S.OptionE - before.OptionE)
	e.dSkip = uint32(f.S.Skipped - before.Skipped)
}

// MemoStats reports the assignment memo's hit/miss counters (diagnostics;
// not part of FillStats, whose encoding is pinned by checkpoint fixtures).
func (f *FillUnit) MemoStats() (hits, misses uint64) {
	return f.memoHits, f.memoMisses
}
