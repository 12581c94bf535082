// Package core implements the paper's primary contribution: dynamic cluster
// assignment for a clustered trace cache processor, performed at retire time
// by the fill unit. It provides
//
//   - the assignment strategy families compared in the paper: baseline
//     slot-based issue, issue-time steering (executed by the pipeline, but
//     declared here), Friendly's intra-trace retire-time reordering (plus the
//     middle-cluster-biased variant), and the proposed feedback-directed
//     retire-time (FDRT) scheme with and without chain pinning;
//   - the cluster-chain profile (leader/follower designation and chain
//     cluster) that the trace cache stores per instruction; and
//   - the fill unit that consumes retiring instructions, updates chains,
//     reorders completed traces, and installs them into the trace cache.
package core

import (
	"fmt"

	"ctcp/internal/emu"
	"ctcp/internal/pcmap"
	"ctcp/internal/trace"
)

// InvariantError is the value the simulator panics with when an internal
// invariant breaks (incomplete fill-unit assignment, a stalled pipeline).
// Panicking keeps the hot paths free of error plumbing; the run boundary
// (pipeline.RunProgramErr) recovers the panic into a typed error so a
// pathological configuration degrades to one failed run instead of killing
// the process.
//
// Ref, when non-zero, is the value the broken invariant was checked on (a
// stale in-flight id, for one). A hot check that must stay small can panic
// with a constant Msg and the value in Ref, leaving the formatting to Error.
type InvariantError struct {
	Msg string
	Ref uint64
}

// Error implements error.
func (e *InvariantError) Error() string {
	if e.Ref != 0 {
		return fmt.Sprintf("%s %#x", e.Msg, e.Ref)
	}
	return e.Msg
}

// StrategyKind selects the cluster assignment strategy.
type StrategyKind int

const (
	// Base is slot-based issue of unreordered traces: cluster = slot/width.
	Base StrategyKind = iota
	// IssueTime steers at issue based on in-flight producer locations. The
	// fill unit leaves traces unreordered; the pipeline performs steering,
	// optionally charging extra front-end stages (§2.3 "Issue Time").
	IssueTime
	// Friendly is the prior retire-time scheme (Friendly et al., MICRO-31):
	// slot scanning with static intra-trace dependency analysis.
	Friendly
	// FriendlyMiddle is Friendly with the slot scan biased so the majority
	// of instructions land in middle clusters (§5.3's "minor adjustment").
	FriendlyMiddle
	// FDRT is the paper's feedback-directed retire-time assignment with
	// chain pinning.
	FDRT
	// FDRTNoPin is FDRT without pinning chain members to a cluster
	// (Tables 9 and 10 ablation).
	FDRTNoPin
)

// Strategies returns every assignment strategy in definition order. Command-
// line tools derive their name tables and flag usage from this list so it
// cannot drift from the StrategyKind constants.
func Strategies() []StrategyKind {
	return []StrategyKind{Base, IssueTime, Friendly, FriendlyMiddle, FDRT, FDRTNoPin}
}

// String returns the strategy name used in tables and figures.
func (k StrategyKind) String() string {
	switch k {
	case Base:
		return "base"
	case IssueTime:
		return "issue-time"
	case Friendly:
		return "friendly"
	case FriendlyMiddle:
		return "friendly-middle"
	case FDRT:
		return "fdrt"
	case FDRTNoPin:
		return "fdrt-nopin"
	}
	return "unknown"
}

// ReordersAtRetire reports whether the fill unit physically reorders traces.
func (k StrategyKind) ReordersAtRetire() bool {
	switch k {
	case Friendly, FriendlyMiddle, FDRT, FDRTNoPin:
		return true
	}
	return false
}

// SteersAtIssue reports whether the pipeline steers instructions at issue.
func (k StrategyKind) SteersAtIssue() bool { return k == IssueTime }

// UsesChains reports whether the strategy maintains cluster-chain feedback.
func (k StrategyKind) UsesChains() bool { return k == FDRT || k == FDRTNoPin }

// Pins reports whether chain members keep their first cluster permanently.
func (k StrategyKind) Pins() bool { return k == FDRT }

// CritSrc identifies which register input of an instruction arrived last.
type CritSrc int

const (
	// CritNone means no input was dynamically forwarded last: the
	// instruction has no register inputs, or all inputs were ready in the
	// register file.
	CritNone CritSrc = iota
	// CritRS1 and CritRS2 name the critical (last-arriving) input operand.
	CritRS1
	CritRS2
)

// RetireInfo is the per-instruction dynamic record the pipeline hands the
// fill unit at retirement: the committed instruction plus everything the
// FDRT scheme feeds on — where it executed, which input was critical, who
// produced that input and from how far away.
type RetireInfo struct {
	// Rec carries the register operands decoded (Rec.Src, Rec.Dest), so
	// the fill unit's dataflow pass never decodes an instruction.
	Rec    emu.Committed
	FromTC bool // fetched from the trace cache (false: instruction cache)
	// Profile carries the chain fields the instruction was fetched with.
	Profile trace.Profile
	// Cluster is the execution cluster the instruction ran on.
	Cluster int
	// FetchGroup identifies the fetch unit (trace line instance or icache
	// fetch group) the instruction arrived in; differing groups for producer
	// and consumer make a dependence inter-trace.
	FetchGroup uint64

	// Critical-input description (the input whose data arrived last).
	CritSrc       CritSrc
	CritForwarded bool // critical input arrived via forwarding, not the RF
	// Producer of the critical input (valid when CritSrc != CritNone and the
	// producing instruction was identifiable in flight).
	CritProducerPC      uint64
	CritProducerSeq     uint64
	CritProducerCluster int
	CritInterTrace      bool // producer fetched in a different group
	// CritProducerProfile is the chain profile the producer instance was
	// fetched with (its trace-line bits at forward time).
	CritProducerProfile trace.Profile
}

// ChainProfile holds the fill unit's *pending* chain designations: profile
// bits assigned by the feedback logic that have not yet been written into a
// trace line. The authoritative storage for chain bits is the trace line
// itself (they travel with fetched instructions and are lost when lines are
// evicted or instructions arrive from the instruction cache); this table
// only bridges the gap between a designation being made at retirement and
// the designated instruction next passing through the fill unit. It is
// bounded and evicts in FIFO order of designation: the victim is the live
// entry whose current designation is oldest, the same order Checkpoint
// encodes, so a decoded table evicts exactly as the uninterrupted one. See
// DESIGN.md substitution #3 and §7.
//
// The table is consulted for every retired instruction (updateChains) and
// every slot of every built trace (assign), so entries live in a dense
// PC-indexed pcmap.Map rather than a hash map. The FIFO order is a slice of
// (pc, stamp) references: each insertion stamps its slot and appends one
// reference, and a reference is valid only while its slot still carries
// that stamp. Take and eviction leave stale references behind; eviction
// skips them and compact drops them, which bounds the slice to
// 2·Len()+orderSlack entries.
type ChainProfile struct {
	capLimit int
	count    int // live (present) designations
	tab      pcmap.Map[chainSlot]
	order    []chainRef
	head     int    // order[:head] has been consumed by eviction
	stamp    uint64 // the last insertion stamp handed out
}

// chainSlot is one dense slot: a designation plus the stamp of the
// insertion that made it (the zero slot, stamp 0, means "no pending
// designation for this PC").
type chainSlot struct {
	prof  trace.Profile
	stamp uint64
}

// chainRef is one FIFO position: the PC designated and its insertion stamp.
type chainRef struct {
	pc, stamp uint64
}

// orderSlack is how many stale references order may hold beyond one per
// live entry before compact drops them.
const orderSlack = 64

// NewChainProfile returns a table bounded to capLimit entries.
func NewChainProfile(capLimit int) *ChainProfile {
	if capLimit <= 0 {
		capLimit = 1
	}
	return &ChainProfile{capLimit: capLimit}
}

// peek returns a copy of pc's slot, the zero slot when pc has none,
// without consuming it: a designation is pending iff its stamp is non-zero.
//
//ctcp:inline
func (c *ChainProfile) peek(pc uint64) chainSlot {
	if e := c.tab.Lookup(pc); e != nil {
		return *e
	}
	return chainSlot{}
}

// slotFor returns ref's slot while ref is its current designation, else nil.
func (c *ChainProfile) slotFor(ref chainRef) *chainSlot {
	if e := c.tab.Lookup(ref.pc); e != nil && e.stamp == ref.stamp {
		return e
	}
	return nil
}

// Get returns the profile recorded for pc (zero Profile when absent).
func (c *ChainProfile) Get(pc uint64) trace.Profile {
	if s := c.peek(pc); s.stamp != 0 {
		return s.prof
	}
	return trace.Profile{}
}

// Set records the profile for pc, evicting the oldest entry when full.
func (c *ChainProfile) Set(pc uint64, p trace.Profile) {
	e := c.tab.Ensure(pc)
	if e.stamp == 0 {
		if c.count >= c.capLimit {
			// FIFO eviction, skipping stale references. Eviction only
			// reads existing slots, so e stays valid across it.
			for c.head < len(c.order) {
				ve := c.slotFor(c.order[c.head])
				c.head++
				if ve != nil {
					*ve = chainSlot{}
					c.count--
					break
				}
			}
		}
		c.stamp++
		e.stamp = c.stamp
		c.count++
		c.order = append(c.order, chainRef{pc, e.stamp})
		c.compact()
	}
	e.prof = p
}

// compact drops the consumed prefix and every stale reference, in place,
// once order holds more than 2·count+orderSlack entries. A compacted order
// holds only live references, and each Set or Take raises len(order) −
// 2·count by at most two, so compactions cost O(1) amortized and order's
// capacity stops growing once the live population does.
func (c *ChainProfile) compact() {
	if len(c.order) <= 2*c.count+orderSlack {
		return
	}
	n := 0
	for _, ref := range c.order[c.head:] {
		if c.slotFor(ref) != nil {
			c.order[n] = ref
			n++
		}
	}
	c.order = c.order[:n]
	c.head = 0
}

// Has reports whether pc has a pending designation.
func (c *ChainProfile) Has(pc uint64) bool {
	return c.peek(pc).stamp != 0
}

// Take removes and returns the pending designation for pc, if any.
func (c *ChainProfile) Take(pc uint64) (trace.Profile, bool) {
	e := c.tab.Lookup(pc)
	if e == nil || e.stamp == 0 {
		return trace.Profile{}, false
	}
	p := e.prof
	*e = chainSlot{}
	c.count--
	c.compact()
	return p, true
}

// Len returns the number of live entries.
func (c *ChainProfile) Len() int { return c.count }

// Reset clears the table, keeping the dense table and the order slice's
// capacity for reuse.
func (c *ChainProfile) Reset() {
	c.tab.Reset()
	c.count = 0
	c.order = c.order[:0]
	c.head = 0
	c.stamp = 0
}
