package bpred

import "ctcp/internal/snap"

// Checkpoint codes every predictor table: bimodal/gshare/chooser counters,
// global history, the full BTB (tags, targets, valid bits, LRU stamps), the
// return-address stack, and the prediction statistics. A decode target must
// have been constructed by New with the same configuration, which the
// fingerprint at the head of the section enforces. The histMask field is
// derived from the configuration and is rebuilt by New, not coded.
func (p *Predictor) Checkpoint(c *snap.Codec) {
	c.Begin("bpred")
	c.CheckInt("bpred bimodal entries", p.cfg.BimodalEntries)
	c.CheckInt("bpred gshare entries", p.cfg.GshareEntries)
	c.CheckInt("bpred chooser entries", p.cfg.ChooserEntries)
	c.CheckInt("bpred history bits", p.cfg.HistoryBits)
	c.CheckInt("bpred BTB entries", p.cfg.BTBEntries)
	c.CheckInt("bpred BTB ways", p.cfg.BTBWays)
	c.CheckInt("bpred RAS entries", p.cfg.RASEntries)
	c.Bytes(&p.bimodal)
	c.Bytes(&p.gshare)
	c.Bytes(&p.chooser)
	c.U64(&p.history)
	_ = p.histMask // derived from cfg.HistoryBits in New; never mutated
	c.U64s(&p.btbTags)
	c.U64s(&p.btbTgts)
	c.Bools(&p.btbValid)
	c.U64s(&p.btbLRU)
	c.U64(&p.btbStamp)
	c.U64s(&p.ras)
	c.Int(&p.rasTop)
	c.Counters(&p.S)
	c.End()
}
