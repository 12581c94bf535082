// Fixture for the snapcomplete analyzer: every named field of a type with a
// checkpoint method (first parameter *snap.Codec, *snap.Writer or
// *snap.Reader) must be referenced in the union of those methods'
// intra-package call paths — coded, or audited with `_ = x.field`.
package fixture

import "ctcp/internal/snap"

// Core is complete: PC and seq are coded, and scratch is audited in a
// helper reached transitively from Checkpoint.
type Core struct {
	PC      uint64
	seq     uint64
	scratch []int
}

func (c *Core) Checkpoint(cd *snap.Codec) {
	cd.Begin("core")
	cd.U64(&c.PC)
	cd.U64(&c.seq)
	c.auditScratch()
	cd.End()
}

func (c *Core) auditScratch() {
	_ = c.scratch // transient: rebuilt as the pipeline refills
}

// Leaky forgot a field: hits is coded, misses fell through the cracks.
type Leaky struct {
	hits   uint64
	misses uint64 // want:snapcomplete
}

func (l *Leaky) Checkpoint(c *snap.Codec) {
	c.Begin("leaky")
	c.U64(&l.hits)
	c.End()
}

// Wrapped is coded by an unexported method behind Snapshot/Restore entry
// points: busy is read only by the wrappers' guard, which counts, and lost
// is in neither the wrappers nor the method.
type Wrapped struct {
	pc   uint64
	busy bool
	lost uint64 // want:snapcomplete
}

func (w *Wrapped) Snapshot(sw *snap.Writer) {
	if w.busy {
		sw.Failf("wrapped: busy")
		return
	}
	w.checkpoint(&sw.Codec)
}

func (w *Wrapped) Restore(r *snap.Reader) { w.checkpoint(&r.Codec) }

func (w *Wrapped) checkpoint(c *snap.Codec) {
	c.Begin("wrapped")
	c.U64(&w.pc)
	c.End()
}

// NotCheckpointable's Checkpoint does not take a snap codec, so the analyzer
// leaves it (and its unreferenced field) alone.
type NotCheckpointable struct {
	ignored uint64
}

func (n *NotCheckpointable) Checkpoint(out *[]byte) { *out = append(*out, 0) }
