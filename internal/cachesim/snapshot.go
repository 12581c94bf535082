package cachesim

import (
	"slices"
	"sort"

	"ctcp/internal/snap"
)

// Checkpoint codes the cache's tag/LRU state and access counters; a decode
// target must be constructed with the same configuration. The lineShift and
// setMask fields are derived from the configuration in New and are not
// coded.
func (c *Cache) Checkpoint(cd *snap.Codec) {
	cd.Begin("cache")
	name := c.cfg.Name
	if cd.String(&name); cd.Err() == nil && name != c.cfg.Name {
		cd.Failf("cache name mismatch: snapshot has %q, this configuration has %q", name, c.cfg.Name)
	}
	cd.CheckInt("cache sets", c.cfg.Sets)
	cd.CheckInt("cache ways", c.cfg.Ways)
	cd.CheckInt("cache line size", c.cfg.LineSize)
	_ = c.lineShift // derived from cfg.LineSize in New
	_ = c.setMask   // derived from cfg.Sets in New
	cd.U64s(&c.tags)
	cd.Bools(&c.present)
	cd.U64s(&c.lruStamp)
	cd.U64(&c.nextStamp)
	cd.Counters(&c.S)
	if cd.Err() == nil && (len(c.tags) != c.cfg.Sets*c.cfg.Ways ||
		len(c.present) != len(c.tags) || len(c.lruStamp) != len(c.tags)) {
		cd.Failf("cache %s: restored table sizes do not match geometry", c.cfg.Name)
	}
	cd.End()
}

// Checkpoint codes the full data-memory system: the three cache arrays, the
// outstanding-miss (MSHR) table, and the hierarchy counters.
func (h *Hierarchy) Checkpoint(c *snap.Codec) {
	c.Begin("hierarchy")
	_ = h.cfg // latencies/geometry only; the per-cache sections fingerprint it
	h.L1.Checkpoint(c)
	h.L2.Checkpoint(c)
	h.TLB.Checkpoint(c)
	// MSHR entries are encoded in ascending line-address order, sorted as
	// a copy: the live order is the tie-break of MSHR-full eviction. The
	// encoding predates the slice-backed MSHR, and checkpoints from the
	// map-backed build must read back identically.
	var entries []mshrEntry
	if !c.Decoding() {
		entries = slices.Clone(h.mshr)
		sort.Slice(entries, func(i, j int) bool { return entries[i].line < entries[j].line })
	}
	n := len(entries)
	if c.Len(&n, 16); c.Decoding() {
		h.mshr = slices.Grow(h.mshr[:0], n)[:n]
		entries = h.mshr
	}
	for i := range entries {
		c.U64(&entries[i].line)
		c.I64(&entries[i].ready)
	}
	c.U64(&h.TLBMisses)
	c.U64(&h.L1Misses)
	c.U64(&h.L2Misses)
	c.U64(&h.Accesses)
	c.U64(&h.MSHRMerges)
	c.U64(&h.MSHRStalls)
	c.End()
}
