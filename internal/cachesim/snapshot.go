package cachesim

import (
	"sort"

	"ctcp/internal/snap"
)

// Snapshot serializes the cache's tag/LRU state and access counters. The
// lineShift and setMask fields are derived from the configuration in New
// and are not serialized.
func (c *Cache) Snapshot(w *snap.Writer) {
	w.Begin("cache")
	w.String(c.cfg.Name)
	w.Int(c.cfg.Sets)
	w.Int(c.cfg.Ways)
	w.Int(c.cfg.LineSize)
	_ = c.lineShift // derived from cfg.LineSize in New
	_ = c.setMask   // derived from cfg.Sets in New
	w.U64Slice(c.tags)
	w.BoolSlice(c.present)
	w.U64Slice(c.lruStamp)
	w.U64(c.nextStamp)
	w.Counters(&c.S)
	w.End()
}

// Restore rebuilds the tag/LRU state from r into a cache constructed with
// the same configuration.
func (c *Cache) Restore(r *snap.Reader) {
	r.Begin("cache")
	if got := r.String(); r.Err() == nil && got != c.cfg.Name {
		r.Failf("cache name mismatch: snapshot has %q, this configuration has %q", got, c.cfg.Name)
	}
	r.ExpectInt("cache sets", c.cfg.Sets)
	r.ExpectInt("cache ways", c.cfg.Ways)
	r.ExpectInt("cache line size", c.cfg.LineSize)
	c.tags = r.U64Slice()
	c.present = r.BoolSlice()
	c.lruStamp = r.U64Slice()
	c.nextStamp = r.U64()
	r.Counters(&c.S)
	if r.Err() == nil && (len(c.tags) != c.cfg.Sets*c.cfg.Ways ||
		len(c.present) != len(c.tags) || len(c.lruStamp) != len(c.tags)) {
		r.Failf("cache %s: restored table sizes do not match geometry", c.cfg.Name)
	}
	r.End()
}

// Snapshot serializes the full data-memory system: the three cache arrays,
// the outstanding-miss (MSHR) table, and the hierarchy counters. MSHR
// entries are emitted in ascending line-address order so the encoding is
// deterministic.
func (h *Hierarchy) Snapshot(w *snap.Writer) {
	w.Begin("hierarchy")
	_ = h.cfg // latencies/geometry only; the per-cache sections fingerprint it
	h.L1.Snapshot(w)
	h.L2.Snapshot(w)
	h.TLB.Snapshot(w)
	// Emission stays sorted by line address: the encoding predates the
	// slice-backed MSHR and restored checkpoints from the map-backed build
	// must read back identically.
	entries := append([]mshrEntry(nil), h.mshr...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].line < entries[j].line })
	w.Int(len(entries))
	for _, e := range entries {
		w.U64(e.line)
		w.I64(e.ready)
	}
	w.U64(h.TLBMisses)
	w.U64(h.L1Misses)
	w.U64(h.L2Misses)
	w.U64(h.Accesses)
	w.U64(h.MSHRMerges)
	w.U64(h.MSHRStalls)
	w.End()
}

// Restore rebuilds the data-memory system state from r.
func (h *Hierarchy) Restore(r *snap.Reader) {
	r.Begin("hierarchy")
	h.L1.Restore(r)
	h.L2.Restore(r)
	h.TLB.Restore(r)
	n := r.Int()
	if r.Err() != nil {
		return
	}
	h.mshr = h.mshr[:0]
	for i := 0; i < n; i++ {
		line := r.U64()
		h.mshr = append(h.mshr, mshrEntry{line, r.I64()})
	}
	h.TLBMisses = r.U64()
	h.L1Misses = r.U64()
	h.L2Misses = r.U64()
	h.Accesses = r.U64()
	h.MSHRMerges = r.U64()
	h.MSHRStalls = r.U64()
	r.End()
}
