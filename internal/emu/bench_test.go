package emu

import (
	"testing"

	"ctcp/internal/isa"
)

// stepKernel builds a small synthetic kernel with the instruction mix the
// interpreter actually sees from the workload programs: ALU traffic over a
// loop induction variable, loads/stores walking a buffer, a compare+branch
// loop back-edge. It runs count outer iterations and halts.
func stepKernel(count int64) *isa.Program {
	base := isa.DefaultTextBase
	return &isa.Program{
		TextBase: base,
		DataBase: isa.DefaultDataBase,
		Entry:    base,
		Text: []isa.Inst{
			0: {Op: isa.MOVI, Rc: isa.R(1), Imm: count},                      // i = count
			1: {Op: isa.MOVI, Rc: isa.R(2), Imm: int64(isa.DefaultDataBase)}, // p = data
			2: {Op: isa.MOVI, Rc: isa.R(3), Imm: 0},                          // acc = 0
			// loop:
			3:  {Op: isa.LDQ, Ra: isa.R(2), Imm: 0, Rc: isa.R(4)},                  // v = *p
			4:  {Op: isa.ADD, Ra: isa.R(4), Rb: isa.R(1), Rc: isa.R(4)},            // v += i
			5:  {Op: isa.XOR, Ra: isa.R(3), Rb: isa.R(4), Rc: isa.R(3)},            // acc ^= v
			6:  {Op: isa.SLL, Ra: isa.R(4), Imm: 3, UseImm: true, Rc: isa.R(5)},    //
			7:  {Op: isa.STQ, Ra: isa.R(2), Rb: isa.R(5), Imm: 8},                  // p[1] = v<<3
			8:  {Op: isa.AND, Ra: isa.R(5), Imm: 1023, UseImm: true, Rc: isa.R(6)}, //
			9:  {Op: isa.ADD, Ra: isa.R(2), Rb: isa.R(6), Rc: isa.R(2)},            // p += v&1023
			10: {Op: isa.CMPULT, Ra: isa.R(2), Imm: 1 << 20, UseImm: true, Rc: isa.R(7)},
			11: {Op: isa.BNE, Ra: isa.R(7), Imm: int64(base + 13*isa.PCStride)}, // skip reset
			12: {Op: isa.MOVI, Rc: isa.R(2), Imm: int64(isa.DefaultDataBase)},   // p = data
			13: {Op: isa.SUB, Ra: isa.R(1), Imm: 1, UseImm: true, Rc: isa.R(1)}, // i--
			14: {Op: isa.BNE, Ra: isa.R(1), Imm: int64(base + 3*isa.PCStride)},  // loop
			15: {Op: isa.OUT, Ra: isa.R(3)},
			16: {Op: isa.HALT},
		},
	}
}

// BenchmarkStep measures the interpreter's per-instruction cost on the
// predecoded dispatch path.
func BenchmarkStep(b *testing.B) {
	m := New(stepKernel(1 << 40)) // never halts within any benchmark run
	var c Committed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StepInto(&c); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerInst := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(nsPerInst, "ns/inst")
}
