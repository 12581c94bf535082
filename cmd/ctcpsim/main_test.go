package main

import (
	"strconv"
	"strings"
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
)

// TestRetireLine: a -pipetrace line names the retire cycle, the instruction,
// its cluster and fetch source, and for a forwarded critical input the
// operand, the producer's cluster, the hop distance and the trace scope.
func TestRetireLine(t *testing.T) {
	geom := pipeline.DefaultConfig().Geom
	ri := core.RetireInfo{
		Rec:     emu.Committed{Seq: 42, PC: 0x1010, Inst: isa.Inst{Op: isa.ADD, Ra: 1, Rb: 2, Rc: 3}},
		FromTC:  true,
		Cluster: 3,
	}
	plain := retireLine(77, ri, geom)
	for _, want := range []string{"cyc      77", "seq      42", "pc 0x001010", ri.Rec.Inst.String(), "c3 tc"} {
		if !strings.Contains(plain, want) {
			t.Errorf("line %q lacks %q", plain, want)
		}
	}
	if strings.Contains(plain, "crit") {
		t.Errorf("line %q describes a critical input that was not forwarded", plain)
	}

	ri.CritForwarded, ri.CritSrc, ri.CritProducerCluster, ri.CritInterTrace = true, core.CritRS2, 0, true
	fwd := retireLine(77, ri, geom)
	want := "crit rs2 <- c0, " + strconv.Itoa(geom.Distance(0, 3)) + " hops, inter-trace"
	if !strings.HasSuffix(fwd, want) {
		t.Errorf("forwarded line %q, want suffix %q", fwd, want)
	}
}
