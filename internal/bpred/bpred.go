// Package bpred implements the fetch-engine predictors of Table 7: a
// gshare/bimodal hybrid conditional-branch predictor with a selection
// (chooser) table, a set-associative branch target buffer, and a return
// address stack.
//
// The timing model is trace-driven on the committed path, so each branch is
// predicted and then immediately trained with its architectural outcome; the
// global history register is repaired with actual outcomes, which models a
// front end with perfect history checkpointing.
package bpred

// Config sizes the predictor structures.
type Config struct {
	BimodalEntries int // 2-bit counters indexed by PC
	GshareEntries  int // 2-bit counters indexed by PC^history
	ChooserEntries int // 2-bit selectors: >=2 choose gshare
	HistoryBits    int
	BTBEntries     int
	BTBWays        int
	RASEntries     int
}

// Default returns the paper's 16k-entry hybrid, 512-entry 4-way BTB
// configuration.
func Default() Config {
	return Config{
		BimodalEntries: 16 * 1024,
		GshareEntries:  16 * 1024,
		ChooserEntries: 16 * 1024,
		HistoryBits:    12,
		BTBEntries:     512,
		BTBWays:        4,
		RASEntries:     16,
	}
}

// Stats counts prediction outcomes.
type Stats struct {
	CondBranches   uint64
	CondMispredict uint64
	IndirectJumps  uint64
	IndirectMiss   uint64
	BTBLookups     uint64
	BTBMisses      uint64
	Returns        uint64
	ReturnMiss     uint64
}

// CondAccuracy returns the conditional-branch prediction accuracy.
func (s Stats) CondAccuracy() float64 {
	if s.CondBranches == 0 {
		return 1
	}
	return 1 - float64(s.CondMispredict)/float64(s.CondBranches)
}

// Predictor is the full fetch-engine prediction machinery.
type Predictor struct {
	cfg      Config
	bimodal  []uint8
	gshare   []uint8
	chooser  []uint8
	history  uint64
	histMask uint64

	btbTags  []uint64
	btbTgts  []uint64
	btbValid []bool
	btbLRU   []uint64
	btbStamp uint64

	ras    []uint64
	rasTop int

	S Stats
}

// New builds a predictor; table sizes must be powers of two.
func New(cfg Config) *Predictor {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if !pow2(cfg.BimodalEntries) || !pow2(cfg.GshareEntries) || !pow2(cfg.ChooserEntries) {
		panic("bpred: table sizes must be powers of two")
	}
	sets := cfg.BTBEntries / cfg.BTBWays
	if !pow2(sets) {
		panic("bpred: BTB sets must be a power of two")
	}
	p := &Predictor{cfg: cfg}
	p.Reset()
	return p
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

func pcIndex(pc uint64, size int) int {
	return int((pc >> 2) & uint64(size-1))
}

// PredictCond returns the hybrid prediction for the conditional branch at pc
// without updating any state.
func (p *Predictor) PredictCond(pc uint64) bool {
	bi := p.bimodal[pcIndex(pc, p.cfg.BimodalEntries)] >= 2
	gi := p.gshare[int(((pc>>2)^p.history)&uint64(p.cfg.GshareEntries-1))] >= 2
	if p.chooser[pcIndex(pc, p.cfg.ChooserEntries)] >= 2 {
		return gi
	}
	return bi
}

// UpdateCond trains the hybrid with the architectural outcome and shifts the
// (repaired) global history.
func (p *Predictor) UpdateCond(pc uint64, taken bool) {
	biIdx := pcIndex(pc, p.cfg.BimodalEntries)
	gsIdx := int(((pc >> 2) ^ p.history) & uint64(p.cfg.GshareEntries-1))
	chIdx := pcIndex(pc, p.cfg.ChooserEntries)
	biCorrect := (p.bimodal[biIdx] >= 2) == taken
	gsCorrect := (p.gshare[gsIdx] >= 2) == taken
	if gsCorrect != biCorrect {
		if gsCorrect {
			bump(&p.chooser[chIdx], true)
		} else {
			bump(&p.chooser[chIdx], false)
		}
	}
	bump(&p.bimodal[biIdx], taken)
	bump(&p.gshare[gsIdx], taken)
	p.history = (p.history<<1 | b2u(taken)) & p.histMask
}

// PredictAndTrainCond predicts the branch at pc, trains with the actual
// outcome, and returns whether the prediction was correct.
func (p *Predictor) PredictAndTrainCond(pc uint64, actual bool) (predicted, correct bool) {
	predicted = p.PredictCond(pc)
	p.S.CondBranches++
	correct = predicted == actual
	if !correct {
		p.S.CondMispredict++
	}
	p.UpdateCond(pc, actual)
	return predicted, correct
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- BTB ---

func (p *Predictor) btbSet(pc uint64) int {
	sets := p.cfg.BTBEntries / p.cfg.BTBWays
	return int((pc >> 2) & uint64(sets-1))
}

// BTBLookup returns the predicted target for the control instruction at pc.
func (p *Predictor) BTBLookup(pc uint64) (target uint64, hit bool) {
	p.S.BTBLookups++
	base := p.btbSet(pc) * p.cfg.BTBWays
	for w := 0; w < p.cfg.BTBWays; w++ {
		i := base + w
		if p.btbValid[i] && p.btbTags[i] == pc {
			p.btbStamp++
			p.btbLRU[i] = p.btbStamp
			return p.btbTgts[i], true
		}
	}
	p.S.BTBMisses++
	return 0, false
}

// BTBInsert records the taken target of the control instruction at pc.
func (p *Predictor) BTBInsert(pc, target uint64) {
	base := p.btbSet(pc) * p.cfg.BTBWays
	victim := base
	var victimStamp uint64 = 1<<64 - 1
	for w := 0; w < p.cfg.BTBWays; w++ {
		i := base + w
		if p.btbValid[i] && p.btbTags[i] == pc {
			p.btbTgts[i] = target
			return
		}
		if !p.btbValid[i] {
			victim, victimStamp = i, 0
		} else if p.btbLRU[i] < victimStamp {
			victim, victimStamp = i, p.btbLRU[i]
		}
	}
	p.btbStamp++
	p.btbTags[victim] = pc
	p.btbTgts[victim] = target
	p.btbValid[victim] = true
	p.btbLRU[victim] = p.btbStamp
}

// --- RAS ---

// PushReturn records a call's return address.
func (p *Predictor) PushReturn(addr uint64) {
	p.ras[p.rasTop%len(p.ras)] = addr
	p.rasTop++
}

// PredictReturn pops the predicted return target; ok=false on an empty stack.
func (p *Predictor) PredictReturn() (uint64, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// Reset returns the predictor to the state New builds: weakly-taken
// counters, empty BTB and return stack, zero history and statistics. The
// tables are rewritten in place; one is only reallocated when a failed
// decode left it at the wrong size.
func (p *Predictor) Reset() {
	// Weakly taken start state keeps cold loops from mispredicting twice.
	p.bimodal = filled(p.bimodal, p.cfg.BimodalEntries, 2)
	p.gshare = filled(p.gshare, p.cfg.GshareEntries, 2)
	p.chooser = filled(p.chooser, p.cfg.ChooserEntries, 1) // weakly prefer bimodal
	p.history = 0
	p.histMask = 1<<uint(p.cfg.HistoryBits) - 1
	p.btbTags = filled(p.btbTags, p.cfg.BTBEntries, 0)
	p.btbTgts = filled(p.btbTgts, p.cfg.BTBEntries, 0)
	p.btbValid = filled(p.btbValid, p.cfg.BTBEntries, false)
	p.btbLRU = filled(p.btbLRU, p.cfg.BTBEntries, 0)
	p.btbStamp = 0
	p.ras = filled(p.ras, p.cfg.RASEntries, 0)
	p.rasTop = 0
	p.S = Stats{}
}

// filled returns s with every element set to v, reallocated only when its
// length is not n.
func filled[T any](s []T, n int, v T) []T {
	if len(s) != n {
		s = make([]T, n)
	}
	for i := range s {
		s[i] = v
	}
	return s
}
