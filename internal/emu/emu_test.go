package emu

import (
	"math"
	"testing"
	"testing/quick"

	"ctcp/internal/isa"
)

// prog builds a program whose text is the given instructions, with a small
// data segment.
func prog(data []byte, insts ...isa.Inst) *isa.Program {
	return &isa.Program{
		TextBase: isa.DefaultTextBase,
		DataBase: isa.DefaultDataBase,
		Entry:    isa.DefaultTextBase,
		Text:     insts,
		Data:     data,
	}
}

func run(t *testing.T, p *isa.Program) *Machine {
	t.Helper()
	m := New(p)
	if _, err := m.Run(100000); err != nil {
		t.Fatalf("run fault: %v", err)
	}
	if !m.Halted() {
		t.Fatal("program did not halt within budget")
	}
	return m
}

func TestArithmeticAndLogic(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 40},
		isa.Inst{Op: isa.ADD, Ra: isa.R(1), Imm: 2, UseImm: true, Rc: isa.R(2)},
		isa.Inst{Op: isa.SUB, Ra: isa.R(2), Rb: isa.R(1), Rc: isa.R(3)},
		isa.Inst{Op: isa.MUL, Ra: isa.R(2), Rb: isa.R(2), Rc: isa.R(4)},
		isa.Inst{Op: isa.DIV, Ra: isa.R(4), Imm: 7, UseImm: true, Rc: isa.R(5)},
		isa.Inst{Op: isa.REM, Ra: isa.R(4), Imm: 7, UseImm: true, Rc: isa.R(6)},
		isa.Inst{Op: isa.SLL, Ra: isa.R(1), Imm: 3, UseImm: true, Rc: isa.R(7)},
		isa.Inst{Op: isa.SRA, Ra: isa.R(7), Imm: 2, UseImm: true, Rc: isa.R(8)},
		isa.Inst{Op: isa.XOR, Ra: isa.R(1), Rb: isa.R(2), Rc: isa.R(9)},
		isa.Inst{Op: isa.CMPLT, Ra: isa.R(1), Rb: isa.R(2), Rc: isa.R(10)},
		isa.Inst{Op: isa.HALT},
	))
	want := map[isa.Reg]uint64{
		isa.R(2):  42,
		isa.R(3):  2,
		isa.R(4):  42 * 42,
		isa.R(5):  252,
		isa.R(6):  0,
		isa.R(7):  320,
		isa.R(8):  80,
		isa.R(9):  40 ^ 42,
		isa.R(10): 1,
	}
	for r, v := range want {
		if got := m.Regs[r]; got != v {
			t.Errorf("%v = %d, want %d", r, got, v)
		}
	}
}

func TestDivideByZeroIsZero(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 5},
		isa.Inst{Op: isa.DIV, Ra: isa.R(1), Rb: isa.R(2), Rc: isa.R(3)},
		isa.Inst{Op: isa.REM, Ra: isa.R(1), Rb: isa.R(2), Rc: isa.R(4)},
		isa.Inst{Op: isa.HALT},
	))
	if m.Regs[isa.R(3)] != 0 || m.Regs[isa.R(4)] != 0 {
		t.Errorf("div/rem by zero = %d,%d; want 0,0", m.Regs[isa.R(3)], m.Regs[isa.R(4)])
	}
}

func TestZeroRegisterSemantics(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.ZeroReg, Imm: 99}, // write discarded
		isa.Inst{Op: isa.ADD, Ra: isa.ZeroReg, Imm: 7, UseImm: true, Rc: isa.R(1)},
		isa.Inst{Op: isa.HALT},
	))
	if m.Regs[isa.ZeroReg] != 0 {
		t.Error("zero register was written")
	}
	if m.Regs[isa.R(1)] != 7 {
		t.Errorf("r1 = %d, want 7", m.Regs[isa.R(1)])
	}
}

func TestLoadsAndStores(t *testing.T) {
	base := int64(isa.DefaultDataBase)
	m := run(t, prog(make([]byte, 64),
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: base},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(2), Imm: -2}, // 0xFFFF...FE
		isa.Inst{Op: isa.STQ, Ra: isa.R(1), Rb: isa.R(2), Imm: 0},
		isa.Inst{Op: isa.STL, Ra: isa.R(1), Rb: isa.R(2), Imm: 16},
		isa.Inst{Op: isa.STW, Ra: isa.R(1), Rb: isa.R(2), Imm: 24},
		isa.Inst{Op: isa.STB, Ra: isa.R(1), Rb: isa.R(2), Imm: 32},
		isa.Inst{Op: isa.LDQ, Ra: isa.R(1), Rc: isa.R(10), Imm: 0},
		isa.Inst{Op: isa.LDL, Ra: isa.R(1), Rc: isa.R(11), Imm: 16},
		isa.Inst{Op: isa.LDW, Ra: isa.R(1), Rc: isa.R(12), Imm: 24},
		isa.Inst{Op: isa.LDBU, Ra: isa.R(1), Rc: isa.R(13), Imm: 32},
		isa.Inst{Op: isa.HALT},
	))
	if got := m.Regs[isa.R(10)]; got != uint64(0xFFFFFFFFFFFFFFFE) {
		t.Errorf("ldq = %#x", got)
	}
	if got := m.Regs[isa.R(11)]; got != uint64(0xFFFFFFFFFFFFFFFE) {
		t.Errorf("ldl (sign-extended) = %#x", got)
	}
	if got := m.Regs[isa.R(12)]; got != 0xFFFE {
		t.Errorf("ldw (zero-extended) = %#x", got)
	}
	if got := m.Regs[isa.R(13)]; got != 0xFE {
		t.Errorf("ldbu = %#x", got)
	}
}

func TestBranchLoop(t *testing.T) {
	// r1 = 10; loop: r2 += r1; r1--; bne r1, loop
	loop := isa.DefaultTextBase + 4
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 10},
		isa.Inst{Op: isa.ADD, Ra: isa.R(2), Rb: isa.R(1), Rc: isa.R(2)},
		isa.Inst{Op: isa.SUB, Ra: isa.R(1), Imm: 1, UseImm: true, Rc: isa.R(1)},
		isa.Inst{Op: isa.BNE, Ra: isa.R(1), Imm: int64(loop)},
		isa.Inst{Op: isa.HALT},
	))
	if m.Regs[isa.R(2)] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[isa.R(2)])
	}
}

func TestJSRAndRET(t *testing.T) {
	// main: jsr ra,(r1) where r1 = func; func: movi r5,123; ret (ra)
	funcAddr := isa.DefaultTextBase + 16
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: int64(funcAddr)},
		isa.Inst{Op: isa.JSR, Rb: isa.R(1), Rc: isa.RA},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(6), Imm: 1}, // return lands here
		isa.Inst{Op: isa.HALT},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(5), Imm: 123}, // funcAddr
		isa.Inst{Op: isa.RET, Rb: isa.RA},
	))
	if m.Regs[isa.R(5)] != 123 || m.Regs[isa.R(6)] != 1 {
		t.Errorf("call/return failed: r5=%d r6=%d", m.Regs[isa.R(5)], m.Regs[isa.R(6)])
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 9},
		isa.Inst{Op: isa.CVTQT, Ra: isa.R(1), Rc: isa.F(1)},
		isa.Inst{Op: isa.SQRTT, Ra: isa.F(1), Rc: isa.F(2)},
		isa.Inst{Op: isa.ADDT, Ra: isa.F(2), Rb: isa.F(2), Rc: isa.F(3)},
		isa.Inst{Op: isa.MULT, Ra: isa.F(3), Rb: isa.F(2), Rc: isa.F(4)},
		isa.Inst{Op: isa.CMPTLT, Ra: isa.F(2), Rb: isa.F(3), Rc: isa.F(5)},
		isa.Inst{Op: isa.CVTTQ, Ra: isa.F(4), Rc: isa.R(2)},
		isa.Inst{Op: isa.HALT},
	))
	if got := math.Float64frombits(m.Regs[isa.F(2)]); got != 3.0 {
		t.Errorf("sqrt(9) = %v", got)
	}
	if got := math.Float64frombits(m.Regs[isa.F(5)]); got != 2.0 {
		t.Errorf("cmptlt true = %v, want 2.0", got)
	}
	if m.Regs[isa.R(2)] != 18 {
		t.Errorf("cvttq = %d, want 18", m.Regs[isa.R(2)])
	}
}

func TestFPBranch(t *testing.T) {
	m := run(t, prog(nil,
		isa.Inst{Op: isa.FBEQ, Ra: isa.F(1), Imm: int64(isa.DefaultTextBase + 12)}, // taken: f1==0
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 111},                             // skipped
		isa.Inst{Op: isa.HALT},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(2), Imm: 222},
		isa.Inst{Op: isa.HALT},
	))
	if m.Regs[isa.R(1)] != 0 || m.Regs[isa.R(2)] != 222 {
		t.Errorf("fbeq path wrong: r1=%d r2=%d", m.Regs[isa.R(1)], m.Regs[isa.R(2)])
	}
}

func TestOutChecksumDeterministic(t *testing.T) {
	p := prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 7},
		isa.Inst{Op: isa.OUT, Ra: isa.R(1)},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 9},
		isa.Inst{Op: isa.OUT, Ra: isa.R(1)},
		isa.Inst{Op: isa.HALT},
	)
	m1, m2 := run(t, p), run(t, p)
	if m1.OutHash == 0 {
		t.Error("OutHash not accumulated")
	}
	if m1.OutHash != m2.OutHash {
		t.Error("OutHash not deterministic")
	}
	if len(m1.OutValues) != 2 || m1.OutValues[0] != 7 || m1.OutValues[1] != 9 {
		t.Errorf("OutValues = %v", m1.OutValues)
	}
}

func TestCommittedRecords(t *testing.T) {
	base := int64(isa.DefaultDataBase)
	p := prog(make([]byte, 16),
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: base},
		isa.Inst{Op: isa.STQ, Ra: isa.R(1), Rb: isa.R(2), Imm: 8},
		isa.Inst{Op: isa.BEQ, Ra: isa.R(2), Imm: int64(isa.DefaultTextBase + 16)},
		isa.Inst{Op: isa.NOP}, // skipped
		isa.Inst{Op: isa.HALT},
	)
	m := New(p)
	var recs []Committed
	for {
		c, ok := m.Next()
		if !ok {
			break
		}
		recs = append(recs, c)
	}
	if len(recs) != 4 {
		t.Fatalf("committed %d records, want 4", len(recs))
	}
	if recs[1].EA != uint64(base)+8 || recs[1].Size != 8 {
		t.Errorf("store record EA=%#x size=%d", recs[1].EA, recs[1].Size)
	}
	if !recs[2].Taken || recs[2].NextPC != isa.DefaultTextBase+16 {
		t.Errorf("branch record taken=%v next=%#x", recs[2].Taken, recs[2].NextPC)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Errorf("rec %d has seq %d", i, r.Seq)
		}
	}
	if recs[0].NextPC != recs[1].PC || recs[2].NextPC != recs[3].PC {
		t.Error("NextPC chain broken")
	}
}

func TestFaultOnWildPC(t *testing.T) {
	m := New(prog(nil, isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 0x500000},
		isa.Inst{Op: isa.JMP, Rb: isa.R(1)}))
	_, err := m.Run(10)
	if err == nil {
		t.Fatal("expected fault for pc outside text")
	}
	if _, ok := err.(*Fault); !ok {
		t.Fatalf("error type %T, want *Fault", err)
	}
	if _, ok := m.Next(); ok {
		t.Error("Next succeeded after fault")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	p := prog([]byte{1, 2, 3},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 5},
		isa.Inst{Op: isa.HALT})
	m := New(p)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Halted() || m.InstCount() != 0 || m.PC != p.Entry {
		t.Error("Reset did not clear state")
	}
	if m.Regs[isa.SP] != isa.StackTop || m.Regs[isa.GP] != p.DataBase {
		t.Error("Reset did not reinitialize SP/GP")
	}
	if m.Mem.LoadByte(p.DataBase+1) != 2 {
		t.Error("Reset did not reload data segment")
	}
}

func TestLimitStream(t *testing.T) {
	recs := make([]Committed, 10)
	ls := &LimitStream{S: &SliceStream{Recs: recs}, Budget: 4}
	n := 0
	var c Committed
	for ls.NextInto(&c) {
		n++
	}
	if n != 4 {
		t.Errorf("LimitStream delivered %d, want 4", n)
	}
}

func TestMemoryReadWriteQuick(t *testing.T) {
	f := func(addr uint64, val uint64, szSel uint8) bool {
		addr &= 0xFFFF_FFFF // keep the page map small
		size := []int{1, 2, 4, 8}[szSel%4]
		m := NewMemory()
		m.Write(addr, val, size)
		want := val
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(2*pageSize - 3) // 8-byte access crosses page boundary
	m.Write(addr, 0x1122334455667788, 8)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("straddling read = %#x", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("pages touched = %d, want 2", m.PageCount())
	}
}

func TestMemoryBulkBytes(t *testing.T) {
	m := NewMemory()
	data := make([]byte, 3*pageSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m.WriteBytes(pageSize-5, data)
	got := m.ReadBytes(pageSize-5, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], data[i])
		}
	}
}
