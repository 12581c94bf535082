package bpred

import "ctcp/internal/snap"

// Snapshot serializes every predictor table: bimodal/gshare/chooser
// counters, global history, the full BTB (tags, targets, valid bits, LRU
// stamps), the return-address stack, and the prediction statistics. The
// histMask field is derived from the configuration and is rebuilt by New,
// not serialized.
func (p *Predictor) Snapshot(w *snap.Writer) {
	w.Begin("bpred")
	w.Int(p.cfg.BimodalEntries)
	w.Int(p.cfg.GshareEntries)
	w.Int(p.cfg.ChooserEntries)
	w.Int(p.cfg.HistoryBits)
	w.Int(p.cfg.BTBEntries)
	w.Int(p.cfg.BTBWays)
	w.Int(p.cfg.RASEntries)
	w.Bytes(p.bimodal)
	w.Bytes(p.gshare)
	w.Bytes(p.chooser)
	w.U64(p.history)
	_ = p.histMask // derived from cfg.HistoryBits in New; never mutated
	w.U64Slice(p.btbTags)
	w.U64Slice(p.btbTgts)
	w.BoolSlice(p.btbValid)
	w.U64Slice(p.btbLRU)
	w.U64(p.btbStamp)
	w.U64Slice(p.ras)
	w.Int(p.rasTop)
	w.Counters(&p.S)
	w.End()
}

// Restore rebuilds the predictor tables from r. The receiver must have been
// constructed by New with the same configuration, which is enforced by the
// fingerprint at the head of the section.
func (p *Predictor) Restore(r *snap.Reader) {
	r.Begin("bpred")
	r.ExpectInt("bpred bimodal entries", p.cfg.BimodalEntries)
	r.ExpectInt("bpred gshare entries", p.cfg.GshareEntries)
	r.ExpectInt("bpred chooser entries", p.cfg.ChooserEntries)
	r.ExpectInt("bpred history bits", p.cfg.HistoryBits)
	r.ExpectInt("bpred BTB entries", p.cfg.BTBEntries)
	r.ExpectInt("bpred BTB ways", p.cfg.BTBWays)
	r.ExpectInt("bpred RAS entries", p.cfg.RASEntries)
	p.bimodal = r.Bytes()
	p.gshare = r.Bytes()
	p.chooser = r.Bytes()
	p.history = r.U64()
	p.btbTags = r.U64Slice()
	p.btbTgts = r.U64Slice()
	p.btbValid = r.BoolSlice()
	p.btbLRU = r.U64Slice()
	p.btbStamp = r.U64()
	p.ras = r.U64Slice()
	p.rasTop = r.Int()
	r.Counters(&p.S)
	r.End()
}
