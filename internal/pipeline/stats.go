package pipeline

import (
	"ctcp/internal/bpred"
	"ctcp/internal/core"
	"ctcp/internal/trace"
)

// Stats aggregates everything the paper's tables and figures report. It is
// integer counters only: snap.Counters checkpoints it, snap.AddCounters sums
// it and ctcpd's /metrics exports it, all through snap.Walk.
type Stats struct {
	Cycles  int64
	Retired uint64

	// Fetch-source accounting (Table 1).
	RetiredFromTC  uint64
	TCGroups       uint64 // trace lines delivered by the trace cache
	TCGroupInsts   uint64
	ICGroups       uint64
	ICGroupInsts   uint64
	ICacheMisses   uint64
	FetchRedirects uint64 // cycles groups were cut short by a mispredict

	// Critical-input analysis over instructions with at least one register
	// input (Figure 4, Table 2).
	WithInputs     uint64
	CritFromRF     uint64
	CritFromRS1    uint64
	CritFromRS2    uint64
	CritForwarded  uint64 // critical input arrived by forwarding
	CritInterTrace uint64 // ...from a different fetch group

	// Forwarding geometry for critical inputs (Table 8).
	CritIntraCluster uint64 // distance 0
	CritDistSum      uint64 // total hops over forwarded critical inputs

	// All forwarded register inputs (supporting data).
	FwdInputs       uint64
	FwdIntraCluster uint64
	FwdDistSum      uint64

	// Producer repeatability (Table 3).
	RS1Seen, RS1Repeat                uint64
	RS2Seen, RS2Repeat                uint64
	CritRS1InterSeen, CritRS1InterRep uint64
	CritRS2InterSeen, CritRS2InterRep uint64

	// Control flow.
	CondBranches uint64
	Mispredicts  uint64
	IndirectMiss uint64
	BTBBubbles   uint64

	// Memory behaviour.
	Loads, Stores uint64
	StoreForwards uint64 // loads satisfied from the store buffer

	// Stall counters count cycles: each cycle in which a full structure
	// holds a stage counts once.
	SBFullStalls    uint64 // cycles retire waited on a full store buffer
	LoadQFullStalls uint64 // cycles rename waited on a full load queue
	ROBFullStalls   uint64 // cycles rename waited on a full ROB

	// Substructures, checkpointed by their components' own sections.
	BP   bpred.Stats    `snap:"-"`
	TC   trace.Stats    `snap:"-"`
	Fill core.FillStats `snap:"-"`
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// PctFromTC returns the fraction of retired instructions fetched from the
// trace cache (Table 1 "% TC Instr").
func (s Stats) PctFromTC() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.RetiredFromTC) / float64(s.Retired)
}

// AvgTraceSize returns the mean instructions per fetched trace line
// (Table 1 "Trace Size").
func (s Stats) AvgTraceSize() float64 {
	if s.TCGroups == 0 {
		return 0
	}
	return float64(s.TCGroupInsts) / float64(s.TCGroups)
}

// CritFwdFrac returns the fraction of instructions-with-inputs whose
// critical input arrived via data forwarding (Table 2, first column).
func (s Stats) CritFwdFrac() float64 {
	if s.WithInputs == 0 {
		return 0
	}
	return float64(s.CritForwarded) / float64(s.WithInputs)
}

// CritInterTraceFrac returns the fraction of forwarded critical inputs whose
// producer was in a different trace (Table 2, second column).
func (s Stats) CritInterTraceFrac() float64 {
	if s.CritForwarded == 0 {
		return 0
	}
	return float64(s.CritInterTrace) / float64(s.CritForwarded)
}

// IntraClusterFrac returns the fraction of forwarded critical inputs
// satisfied within one cluster (Table 8a).
func (s Stats) IntraClusterFrac() float64 {
	if s.CritForwarded == 0 {
		return 0
	}
	return float64(s.CritIntraCluster) / float64(s.CritForwarded)
}

// AvgFwdDistance returns the mean inter-cluster distance of forwarded
// critical inputs (Table 8b).
func (s Stats) AvgFwdDistance() float64 {
	if s.CritForwarded == 0 {
		return 0
	}
	return float64(s.CritDistSum) / float64(s.CritForwarded)
}

// MispredictRate returns mispredicted conditional branches per retired
// conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RepeatRateRS1 returns the producer repeat rate for RS1 inputs (Table 3).
func (s Stats) RepeatRateRS1() float64 { return ratio(s.RS1Repeat, s.RS1Seen) }

// RepeatRateRS2 returns the producer repeat rate for RS2 inputs.
func (s Stats) RepeatRateRS2() float64 { return ratio(s.RS2Repeat, s.RS2Seen) }

// RepeatRateCritRS1Inter returns the repeat rate for critical inter-trace
// RS1 inputs.
func (s Stats) RepeatRateCritRS1Inter() float64 {
	return ratio(s.CritRS1InterRep, s.CritRS1InterSeen)
}

// RepeatRateCritRS2Inter returns the repeat rate for critical inter-trace
// RS2 inputs.
func (s Stats) RepeatRateCritRS2Inter() float64 {
	return ratio(s.CritRS2InterRep, s.CritRS2InterSeen)
}
