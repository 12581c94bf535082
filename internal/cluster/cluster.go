// Package cluster defines the execution-cluster substrate of the CTCP
// (paper §2.2): the cluster geometry and inter-cluster interconnect with its
// distance-dependent forwarding latencies, and the per-cluster structure of
// five reservation stations feeding eight special-purpose functional units.
package cluster

import (
	"fmt"

	"ctcp/internal/isa"
)

// Topology selects the inter-cluster interconnect.
type Topology int

const (
	// Chain is the baseline point-to-point chain: end clusters do not
	// communicate directly, so the worst-case distance is Clusters-1 hops.
	Chain Topology = iota
	// Ring connects the end clusters directly (the paper's "mesh network"
	// following Parcerisa et al.), eliminating three-cluster communication.
	Ring
)

func (t Topology) String() string {
	if t == Ring {
		return "ring"
	}
	return "chain"
}

// Geometry describes the clustered execution core.
type Geometry struct {
	Clusters int
	Width    int // issue slots per cluster per cycle
	Topology Topology
	HopLat   int // cycles per inter-cluster hop
	IntraLat int // additional cycles for intra-cluster forwarding (0: same cycle)
}

// DefaultGeometry returns the baseline 4x4 chain with 2-cycle hops.
func DefaultGeometry() Geometry {
	return Geometry{Clusters: 4, Width: 4, Topology: Chain, HopLat: 2, IntraLat: 0}
}

// TotalWidth returns the machine issue width.
func (g Geometry) TotalWidth() int { return g.Clusters * g.Width }

// Distance returns the number of interconnect hops between clusters a and b.
// The bounds panic lives out of line so the body stays under the inlining
// budget — the scheduler evaluates this per forwarded input per instruction.
func (g Geometry) Distance(a, b int) int {
	if a < 0 || a >= g.Clusters || b < 0 || b >= g.Clusters {
		badDistance(a, b)
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	if g.Topology == Ring {
		if wrap := g.Clusters - d; wrap < d {
			d = wrap
		}
	}
	return d
}

//go:noinline
func badDistance(a, b int) {
	panic(fmt.Sprintf("cluster: distance between invalid clusters %d,%d", a, b))
}

// ForwardLat returns the data forwarding latency in cycles from a producer
// in cluster a to a consumer in cluster b.
func (g Geometry) ForwardLat(a, b int) int {
	if a == b {
		return g.IntraLat
	}
	return g.Distance(a, b) * g.HopLat
}

// Neighbors returns the clusters at distance 1 from c, middle-most first,
// which is the order FDRT tries spill targets.
func (g Geometry) Neighbors(c int) []int {
	var out []int
	for d := 0; d < g.Clusters; d++ {
		if d != c && g.Distance(c, d) == 1 {
			out = append(out, d)
		}
	}
	// Prefer neighbors closer to the middle of the chain: forwarding out of
	// a middle cluster can reach anywhere in fewer hops.
	mid := float64(g.Clusters-1) / 2
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if centerDist(float64(out[j]), mid) < centerDist(float64(out[i]), mid) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func centerDist(x, mid float64) float64 {
	if x > mid {
		return x - mid
	}
	return mid - x
}

// MiddleClusters returns the clusters nearest the center of the chain,
// nearest first; FDRT funnels producers with no inputs to these.
func (g Geometry) MiddleClusters() []int {
	out := make([]int, 0, g.Clusters)
	for c := 0; c < g.Clusters; c++ {
		out = append(out, c)
	}
	mid := float64(g.Clusters-1) / 2
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if centerDist(float64(out[j]), mid) < centerDist(float64(out[i]), mid) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// SlotCluster maps a physical issue-slot index (0..TotalWidth-1) to its
// cluster: slot-based steering sends slots 4i..4i+3 to cluster i.
func (g Geometry) SlotCluster(slot int) int {
	c := slot / g.Width
	if c >= g.Clusters {
		c = g.Clusters - 1
	}
	return c
}

// RSKind enumerates the five per-cluster reservation stations.
type RSKind int

const (
	RSSimpleA RSKind = iota // simple integer + basic FP
	RSSimpleB               // second simple station
	RSMem                   // integer and FP memory
	RSBr                    // branches
	RSCpx                   // complex integer and complex FP
	NumRSKinds
)

func (k RSKind) String() string {
	return [...]string{"simpleA", "simpleB", "mem", "br", "cpx"}[k]
}

// FUKind enumerates the eight per-cluster functional units.
type FUKind int

const (
	FUALU0 FUKind = iota
	FUALU1
	FUMem
	FUBr
	FUCpx
	FUFPSimple
	FUFPComplex
	FUFPMem
	NumFUKinds
)

func (k FUKind) String() string {
	return [...]string{"alu0", "alu1", "mem", "br", "cpx", "fps", "fpc", "fpm"}[k]
}

// Shared station/unit capability slices. StationsFor and UnitsFor sit on the
// per-instruction steering and issue paths, so they hand out these static
// slices instead of building fresh literals; callers must treat the results
// as read-only.
var (
	simpleStations = []RSKind{RSSimpleA, RSSimpleB}
	memStations    = []RSKind{RSMem}
	brStations     = []RSKind{RSBr}
	cpxStations    = []RSKind{RSCpx}

	aluUnits   = []FUKind{FUALU0, FUALU1}
	fpAddUnits = []FUKind{FUFPSimple}
	memUnits   = []FUKind{FUMem}
	fpMemUnits = []FUKind{FUFPMem}
	brUnits    = []FUKind{FUBr}
	cpxUnits   = []FUKind{FUCpx}
)

// StationsFor returns the reservation stations that can hold an instruction
// of the given class. Simple operations may use either simple station. The
// returned slice is shared and must not be modified.
func StationsFor(class isa.Class) []RSKind {
	switch class {
	case isa.ClassIntALU, isa.ClassFPAdd, isa.ClassNop, isa.ClassHalt:
		return simpleStations
	case isa.ClassLoad, isa.ClassStore, isa.ClassFPLoad, isa.ClassFPStore:
		return memStations
	case isa.ClassBranch, isa.ClassJump, isa.ClassFPBranch:
		return brStations
	case isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassFPSqrt:
		return cpxStations
	default:
		return simpleStations
	}
}

// UnitsFor returns the functional units that can execute the class. The
// returned slice is shared and must not be modified.
func UnitsFor(class isa.Class) []FUKind {
	switch class {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassHalt:
		return aluUnits
	case isa.ClassFPAdd:
		return fpAddUnits
	case isa.ClassLoad, isa.ClassStore:
		return memUnits
	case isa.ClassFPLoad, isa.ClassFPStore:
		return fpMemUnits
	case isa.ClassBranch, isa.ClassJump, isa.ClassFPBranch:
		return brUnits
	case isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassFPSqrt:
		return cpxUnits
	default:
		return aluUnits
	}
}

// Latency holds the execution and issue (initiation-interval) latencies of a
// class, per Table 7.
type Latency struct {
	Exec  int // cycles from dispatch to result
	Issue int // cycles the FU is busy (1 = fully pipelined)
}

// LatencyFor returns the Table 7 latencies for a class.
func LatencyFor(class isa.Class) Latency {
	switch class {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassHalt:
		return Latency{1, 1}
	case isa.ClassFPAdd:
		return Latency{2, 1}
	case isa.ClassIntMul:
		return Latency{3, 1}
	case isa.ClassIntDiv:
		return Latency{20, 19}
	case isa.ClassFPMul:
		return Latency{3, 1}
	case isa.ClassFPDiv:
		return Latency{12, 12}
	case isa.ClassFPSqrt:
		return Latency{24, 24}
	case isa.ClassLoad, isa.ClassStore, isa.ClassFPLoad, isa.ClassFPStore:
		return Latency{1, 1} // address generation; cache adds the rest
	case isa.ClassBranch, isa.ClassJump, isa.ClassFPBranch:
		return Latency{1, 1}
	default:
		return Latency{1, 1}
	}
}

// RSConfig sizes the reservation stations (Table 7: five 8-entry stations
// with 2 write ports each).
type RSConfig struct {
	Entries    int // per station
	WritePorts int // dispatches into one station per cycle
}

// DefaultRSConfig returns the Table 7 sizing.
func DefaultRSConfig() RSConfig { return RSConfig{Entries: 8, WritePorts: 2} }
