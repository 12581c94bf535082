package emu

import (
	"math"
	"testing"

	"ctcp/internal/isa"
)

// opCase runs a tiny program that materializes two operands, applies one
// instruction, and checks the destination register.
type opCase struct {
	name string
	op   isa.Op
	a, b int64
	want uint64
}

func TestIntegerOperateSemantics(t *testing.T) {
	cases := []opCase{
		{"add", isa.ADD, 5, 7, 12},
		{"add-neg", isa.ADD, -5, 3, ^uint64(1)},
		{"sub", isa.SUB, 5, 7, ^uint64(1)},
		{"and", isa.AND, 0xF0F0, 0xFF00, 0xF000},
		{"or", isa.OR, 0xF0F0, 0x0F0F, 0xFFFF},
		{"xor", isa.XOR, 0xFF, 0x0F, 0xF0},
		{"andnot", isa.ANDNOT, 0xFF, 0x0F, 0xF0},
		{"sll", isa.SLL, 1, 12, 4096},
		{"srl", isa.SRL, 4096, 12, 1},
		{"srl-neg", isa.SRL, -1, 60, 0xF},
		{"sra-neg", isa.SRA, -16, 2, ^uint64(3)},
		{"cmpeq-t", isa.CMPEQ, 9, 9, 1},
		{"cmpeq-f", isa.CMPEQ, 9, 8, 0},
		{"cmplt-signed", isa.CMPLT, -1, 0, 1},
		{"cmple", isa.CMPLE, 4, 4, 1},
		{"cmpult-unsigned", isa.CMPULT, -1, 0, 0}, // -1 is max uint64
		{"cmpule", isa.CMPULE, 3, 3, 1},
		{"mul", isa.MUL, -3, 7, ^uint64(20)},
		{"div", isa.DIV, -21, 7, ^uint64(2)},
		{"rem", isa.REM, 22, 7, 1},
		{"rem-neg", isa.REM, -22, 7, ^uint64(0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := run(t, prog(nil,
				isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: c.a},
				isa.Inst{Op: isa.MOVI, Rc: isa.R(2), Imm: c.b},
				isa.Inst{Op: c.op, Ra: isa.R(1), Rb: isa.R(2), Rc: isa.R(3)},
				isa.Inst{Op: isa.HALT},
			))
			if got := m.Regs[isa.R(3)]; got != c.want {
				t.Errorf("%v(%d,%d) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
			}
		})
	}
}

func TestSignExtensions(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 0x1FF},
		isa.Inst{Op: isa.SEXTB, Ra: isa.R(1), Rc: isa.R(2)},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(3), Imm: 0x18000},
		isa.Inst{Op: isa.SEXTW, Ra: isa.R(3), Rc: isa.R(4)},
		isa.Inst{Op: isa.HALT},
	))
	if int64(m.Regs[isa.R(2)]) != -1 {
		t.Errorf("sextb(0x1FF) = %d", int64(m.Regs[isa.R(2)]))
	}
	if int64(m.Regs[isa.R(4)]) != -32768 {
		t.Errorf("sextw(0x18000) = %d", int64(m.Regs[isa.R(4)]))
	}
}

func TestBranchConditionMatrix(t *testing.T) {
	fbits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	negZero := math.Copysign(0, -1)
	cases := []struct {
		op    isa.Op
		v     int64 // FBEQ/FBNE: the IEEE-754 bits of the tested value
		taken bool
	}{
		{isa.BEQ, 0, true}, {isa.BEQ, 1, false},
		{isa.BNE, 0, false}, {isa.BNE, -1, true},
		{isa.BLT, -1, true}, {isa.BLT, 0, false},
		{isa.BLE, 0, true}, {isa.BLE, 1, false},
		{isa.BGT, 1, true}, {isa.BGT, 0, false},
		{isa.BGE, 0, true}, {isa.BGE, -1, false},
		{isa.FBEQ, fbits(0), true}, {isa.FBEQ, fbits(negZero), true}, {isa.FBEQ, fbits(1.5), false},
		{isa.FBNE, fbits(0), false}, {isa.FBNE, fbits(negZero), false}, {isa.FBNE, fbits(-1.5), true},
	}
	const brPC, target = isa.DefaultTextBase + 8, isa.DefaultTextBase + 20
	for _, c := range cases {
		ra := isa.R(1)
		if c.op == isa.FBEQ || c.op == isa.FBNE {
			ra = isa.F(1)
		}
		m := New(prog(nil,
			isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: c.v},
			isa.Inst{Op: isa.ITOF, Ra: isa.R(1), Rc: isa.F(1)},
			isa.Inst{Op: c.op, Ra: ra, Imm: int64(target), UseImm: true},
			isa.Inst{Op: isa.HALT},
			isa.Inst{Op: isa.NOP},
			isa.Inst{Op: isa.HALT},
		))
		m.Step()
		m.Step()
		rec, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		wantNext := uint64(brPC + isa.PCStride)
		if c.taken {
			wantNext = target
		}
		if rec.Taken != c.taken || rec.NextPC != wantNext {
			t.Errorf("%v(%#x): taken=%v next=%#x, want %v %#x", c.op, c.v, rec.Taken, rec.NextPC, c.taken, wantNext)
		}
	}
}

func TestFPArithmetic(t *testing.T) {
	// f1=7.0 f2=2.0; check sub/div and compares.
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 7},
		isa.Inst{Op: isa.CVTQT, Ra: isa.R(1), Rc: isa.F(1)},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(2), Imm: 2},
		isa.Inst{Op: isa.CVTQT, Ra: isa.R(2), Rc: isa.F(2)},
		isa.Inst{Op: isa.SUBT, Ra: isa.F(1), Rb: isa.F(2), Rc: isa.F(3)},
		isa.Inst{Op: isa.DIVT, Ra: isa.F(1), Rb: isa.F(2), Rc: isa.F(4)},
		isa.Inst{Op: isa.CMPTEQ, Ra: isa.F(1), Rb: isa.F(1), Rc: isa.F(5)},
		isa.Inst{Op: isa.CMPTLE, Ra: isa.F(1), Rb: isa.F(2), Rc: isa.F(6)},
		isa.Inst{Op: isa.HALT},
	))
	if got := math.Float64frombits(m.Regs[isa.F(3)]); got != 5.0 {
		t.Errorf("subt = %v", got)
	}
	if got := math.Float64frombits(m.Regs[isa.F(4)]); got != 3.5 {
		t.Errorf("divt = %v", got)
	}
	if got := math.Float64frombits(m.Regs[isa.F(5)]); got != 2.0 {
		t.Errorf("cmpteq true = %v", got)
	}
	if got := math.Float64frombits(m.Regs[isa.F(6)]); got != 0.0 {
		t.Errorf("cmptle false = %v", got)
	}
}

func TestBitMoves(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 0x3FF},
		isa.Inst{Op: isa.ITOF, Ra: isa.R(1), Rc: isa.F(1)},
		isa.Inst{Op: isa.FTOI, Ra: isa.F(1), Rc: isa.R(2)},
		isa.Inst{Op: isa.HALT},
	))
	if m.Regs[isa.R(2)] != 0x3FF {
		t.Errorf("itof/ftoi roundtrip = %#x", m.Regs[isa.R(2)])
	}
	if m.Regs[isa.F(1)] != 0x3FF {
		t.Errorf("itof stored %#x", m.Regs[isa.F(1)])
	}
}

func TestBRWithLink(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.BR, Rc: isa.RA, Imm: int64(isa.DefaultTextBase + 8), UseImm: true},
		isa.Inst{Op: isa.NOP}, // skipped
		isa.Inst{Op: isa.HALT},
	))
	if m.Regs[isa.RA] != uint64(isa.DefaultTextBase+4) {
		t.Errorf("br link = %#x", m.Regs[isa.RA])
	}
}

func TestCVTTQTruncates(t *testing.T) {
	// 7/2 = 3.5 truncates toward zero -> 3.
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 7},
		isa.Inst{Op: isa.CVTQT, Ra: isa.R(1), Rc: isa.F(1)},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(2), Imm: 2},
		isa.Inst{Op: isa.CVTQT, Ra: isa.R(2), Rc: isa.F(2)},
		isa.Inst{Op: isa.DIVT, Ra: isa.F(1), Rb: isa.F(2), Rc: isa.F(3)},
		isa.Inst{Op: isa.CVTTQ, Ra: isa.F(3), Rc: isa.R(3)},
		isa.Inst{Op: isa.HALT},
	))
	if m.Regs[isa.R(3)] != 3 {
		t.Errorf("cvttq(3.5) = %d", m.Regs[isa.R(3)])
	}
}

func TestImmediateForms(t *testing.T) {
	// Every binary integer op accepts an immediate second operand: 13 op 3.
	cases := []struct {
		op   isa.Op
		want uint64
	}{
		{isa.ADD, 16}, {isa.SUB, 10}, {isa.AND, 1}, {isa.OR, 15}, {isa.XOR, 14},
		{isa.ANDNOT, 12}, {isa.SLL, 104}, {isa.SRL, 1}, {isa.SRA, 1},
		{isa.CMPEQ, 0}, {isa.CMPLT, 0}, {isa.CMPLE, 0}, {isa.CMPULT, 0},
		{isa.CMPULE, 0}, {isa.MUL, 39}, {isa.DIV, 4}, {isa.REM, 1},
	}
	for _, c := range cases {
		m := run(t, prog(nil,
			isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 13},
			isa.Inst{Op: c.op, Ra: isa.R(1), Imm: 3, UseImm: true, Rc: isa.R(2)},
			isa.Inst{Op: isa.HALT},
		))
		if got := m.Regs[isa.R(2)]; got != c.want {
			t.Errorf("%v(13, #3) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestStepAfterHaltErrors(t *testing.T) {
	m := run(t, prog(nil, isa.Inst{Op: isa.HALT}))
	if _, err := m.Step(); err == nil {
		t.Error("Step after halt did not error")
	}
}
