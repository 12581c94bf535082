package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpTableComplete(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); int(op) < NumOps; op++ {
		info := op.Info()
		if info.Name == "" {
			t.Fatalf("opcode %d has no table entry", op)
		}
		if prev, dup := seen[info.Name]; dup {
			t.Fatalf("mnemonic %q used by both %d and %d", info.Name, prev, op)
		}
		seen[info.Name] = op
		back, ok := OpByName(info.Name)
		if !ok || back != op {
			t.Fatalf("OpByName(%q) = %v,%v; want %v,true", info.Name, back, ok, op)
		}
	}
}

func TestRegNaming(t *testing.T) {
	if R(0).String() != "r0" || R(31).String() != "r31" {
		t.Errorf("integer register naming broken: %s %s", R(0), R(31))
	}
	if F(0).String() != "f0" || F(31).String() != "f31" {
		t.Errorf("fp register naming broken: %s %s", F(0), F(31))
	}
	if !F(5).IsFP() || R(5).IsFP() {
		t.Error("IsFP misclassifies registers")
	}
	if !ZeroReg.IsZero() || !FZeroReg.IsZero() || R(3).IsZero() {
		t.Error("IsZero misclassifies registers")
	}
}

func TestRegBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("R(32) did not panic")
		}
	}()
	_ = R(32)
}

func TestSrcsAndDest(t *testing.T) {
	cases := []struct {
		in     Inst
		s1, s2 Reg
		dest   Reg
	}{
		{Inst{Op: ADD, Ra: R(1), Rb: R(2), Rc: R(3)}, R(1), R(2), R(3)},
		{Inst{Op: ADD, Ra: R(1), Imm: 7, UseImm: true, Rc: R(3)}, R(1), NoReg, R(3)},
		{Inst{Op: ADD, Ra: ZeroReg, Rb: R(2), Rc: ZeroReg}, NoReg, R(2), NoReg},
		{Inst{Op: MOVI, Rc: R(9), Imm: 42}, NoReg, NoReg, R(9)},
		{Inst{Op: LDQ, Ra: R(4), Rc: R(5), Imm: 16}, R(4), NoReg, R(5)},
		{Inst{Op: STQ, Ra: R(4), Rb: R(6), Imm: 16}, R(4), R(6), NoReg},
		{Inst{Op: BEQ, Ra: R(7), Imm: 0x1000}, R(7), NoReg, NoReg},
		{Inst{Op: BR, Imm: 0x1000, Rc: NoReg}, NoReg, NoReg, NoReg},
		{Inst{Op: BR, Imm: 0x1000, Rc: RA}, NoReg, NoReg, RA},
		{Inst{Op: JSR, Rb: R(8), Rc: RA}, R(8), NoReg, RA},
		{Inst{Op: RET, Rb: RA}, RA, NoReg, NoReg},
		{Inst{Op: ADDT, Ra: F(1), Rb: F(2), Rc: F(3)}, F(1), F(2), F(3)},
		{Inst{Op: SQRTT, Ra: F(1), Rc: F(3)}, F(1), NoReg, F(3)},
		{Inst{Op: STT, Ra: R(4), Rb: F(6), Imm: 8}, R(4), F(6), NoReg},
		{Inst{Op: FBNE, Ra: F(2), Imm: 0x2000}, F(2), NoReg, NoReg},
		{Inst{Op: HALT}, NoReg, NoReg, NoReg},
		{Inst{Op: OUT, Ra: R(2)}, R(2), NoReg, NoReg},
		{Inst{Op: NOP}, NoReg, NoReg, NoReg},
	}
	for _, c := range cases {
		s1, s2 := c.in.Srcs()
		if s1 != c.s1 || s2 != c.s2 {
			t.Errorf("%v: Srcs() = %v,%v; want %v,%v", c.in, s1, s2, c.s1, c.s2)
		}
		if d := c.in.Dest(); d != c.dest {
			t.Errorf("%v: Dest() = %v; want %v", c.in, d, c.dest)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !LDQ.Class().IsLoad() || !LDQ.Class().IsMem() || LDQ.Class().IsStore() {
		t.Error("LDQ class predicates wrong")
	}
	if !STT.Class().IsStore() || !STT.Class().IsMem() {
		t.Error("STT class predicates wrong")
	}
	if !BEQ.Class().IsControl() || !RET.Class().IsControl() || ADD.Class().IsControl() {
		t.Error("control predicates wrong")
	}
	if !(Inst{Op: BNE, Ra: R(1)}).IsCond() || (Inst{Op: BR}).IsCond() {
		t.Error("IsCond wrong")
	}
}

// randomCanonInst builds a random but well-formed instruction and returns its
// canonical form.
func randomCanonInst(r *rand.Rand) Inst {
	op := Op(r.Intn(NumOps))
	in := Inst{
		Op:     op,
		Ra:     Reg(r.Intn(NumRegs)),
		Rb:     Reg(r.Intn(NumRegs)),
		Rc:     Reg(r.Intn(NumRegs)),
		Imm:    int64(int32(r.Uint32())),
		UseImm: r.Intn(2) == 0,
	}
	return in.Canon()
}

// TestCanonIsIdempotent: Canon is the assembler's normal form, so applying
// it to a canonical instruction changes nothing, the opcode included.
func TestCanonIsIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for k := 0; k < 32; k++ {
			c := randomCanonInst(r)
			if again := c.Canon(); again != c || again.Op != c.Op {
				t.Logf("Canon not idempotent: %+v -> %+v", c, again)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCanonPerFormat pins Canon's output for one non-canonical input per
// operand format: fields the format does not use become the integer zero
// register (a unary op's Rb the zero register of Ra's file), registers move
// into the file the opcode names, and only an integer operate keeps the
// register-or-immediate choice.
func TestCanonPerFormat(t *testing.T) {
	z, fz := ZeroReg, FZeroReg
	cases := []struct{ in, want Inst }{
		{Inst{Op: NOP, Ra: R(1), Rb: R(2), Rc: R(3), Imm: 9, UseImm: true},
			Inst{Op: NOP, Ra: z, Rb: z, Rc: z}},
		{Inst{Op: HALT, Ra: F(1), Rb: NoReg, Rc: R(3), Imm: 9},
			Inst{Op: HALT, Ra: z, Rb: z, Rc: z}},
		{Inst{Op: OUT, Ra: F(2), Rb: R(1), Rc: R(3), Imm: 5, UseImm: true},
			Inst{Op: OUT, Ra: R(2), Rb: z, Rc: z}},
		{Inst{Op: ADD, Ra: F(1), Rb: F(2), Rc: F(3), Imm: 7},
			Inst{Op: ADD, Ra: R(1), Rb: R(2), Rc: R(3)}},
		{Inst{Op: SUB, Ra: R(1), Rb: R(2), Rc: R(3), Imm: 7, UseImm: true},
			Inst{Op: SUB, Ra: R(1), Rb: z, Rc: R(3), Imm: 7, UseImm: true}},
		{Inst{Op: MUL, Ra: NoReg, Rb: FZeroReg, Rc: R(3)},
			Inst{Op: MUL, Ra: z, Rb: z, Rc: R(3)}},
		// An FP operate given an immediate drops it and reads Fb.
		{Inst{Op: ADDT, Ra: R(1), Rb: R(2), Rc: R(3), Imm: 7, UseImm: true},
			Inst{Op: ADDT, Ra: F(1), Rb: F(2), Rc: F(3)}},
		{Inst{Op: CMPTLT, Ra: F(1), Rb: ZeroReg, Rc: F(3)},
			Inst{Op: CMPTLT, Ra: F(1), Rb: fz, Rc: F(3)}},
		{Inst{Op: SEXTB, Ra: F(1), Rb: R(2), Rc: R(3), Imm: 4, UseImm: true},
			Inst{Op: SEXTB, Ra: R(1), Rb: z, Rc: R(3)}},
		{Inst{Op: SQRTT, Ra: R(1), Rb: R(2), Rc: R(3), Imm: 4, UseImm: true},
			Inst{Op: SQRTT, Ra: F(1), Rb: fz, Rc: F(3)}},
		// Cross-file ops: Rb is the zero register of Ra's file.
		{Inst{Op: ITOF, Ra: F(1), Rb: F(2), Rc: R(3)},
			Inst{Op: ITOF, Ra: R(1), Rb: z, Rc: F(3)}},
		{Inst{Op: FTOI, Ra: R(1), Rb: R(2), Rc: F(3)},
			Inst{Op: FTOI, Ra: F(1), Rb: fz, Rc: R(3)}},
		{Inst{Op: CVTQT, Ra: F(1), Rb: F(2), Rc: R(3)},
			Inst{Op: CVTQT, Ra: R(1), Rb: z, Rc: F(3)}},
		{Inst{Op: CVTTQ, Ra: R(1), Rb: R(2), Rc: F(3)},
			Inst{Op: CVTTQ, Ra: F(1), Rb: fz, Rc: R(3)}},
		{Inst{Op: MOVI, Ra: R(1), Rb: R(2), Rc: F(3), Imm: 42},
			Inst{Op: MOVI, Ra: z, Rb: z, Rc: R(3), Imm: 42, UseImm: true}},
		{Inst{Op: LDQ, Ra: F(4), Rb: R(2), Rc: F(5), Imm: 16},
			Inst{Op: LDQ, Ra: R(4), Rb: z, Rc: R(5), Imm: 16, UseImm: true}},
		{Inst{Op: LDT, Ra: F(4), Rb: R(2), Rc: R(5), Imm: 16},
			Inst{Op: LDT, Ra: R(4), Rb: z, Rc: F(5), Imm: 16, UseImm: true}},
		{Inst{Op: STQ, Ra: R(4), Rb: F(6), Rc: R(7), Imm: 8},
			Inst{Op: STQ, Ra: R(4), Rb: R(6), Rc: z, Imm: 8, UseImm: true}},
		{Inst{Op: STT, Ra: F(4), Rb: R(6), Rc: R(7), Imm: 8},
			Inst{Op: STT, Ra: R(4), Rb: F(6), Rc: z, Imm: 8, UseImm: true}},
		{Inst{Op: BEQ, Ra: F(7), Rb: R(1), Rc: R(2), Imm: 0x1000},
			Inst{Op: BEQ, Ra: R(7), Rb: z, Rc: z, Imm: 0x1000, UseImm: true}},
		{Inst{Op: FBEQ, Ra: R(2), Rb: R(1), Rc: R(3), Imm: 0x2000},
			Inst{Op: FBEQ, Ra: F(2), Rb: z, Rc: z, Imm: 0x2000, UseImm: true}},
		{Inst{Op: BR, Ra: R(1), Rb: R(2), Rc: NoReg, Imm: 0x1000},
			Inst{Op: BR, Ra: z, Rb: z, Rc: z, Imm: 0x1000, UseImm: true}},
		{Inst{Op: BR, Ra: R(1), Rb: R(2), Rc: F(26), Imm: 0x1000},
			Inst{Op: BR, Ra: z, Rb: z, Rc: RA, Imm: 0x1000, UseImm: true}},
		{Inst{Op: JSR, Ra: R(1), Rb: F(8), Rc: RA, Imm: 12, UseImm: true},
			Inst{Op: JSR, Ra: z, Rb: R(8), Rc: RA}},
		{Inst{Op: JMP, Ra: R(1), Rb: R(8), Rc: R(3), Imm: 12, UseImm: true},
			Inst{Op: JMP, Ra: z, Rb: R(8), Rc: z}},
		{Inst{Op: RET, Ra: R(1), Rb: RA, Rc: R(3), Imm: 4},
			Inst{Op: RET, Ra: z, Rb: RA, Rc: z}},
	}
	for _, c := range cases {
		if got := c.in.Canon(); got != c.want {
			t.Errorf("%s: Canon(%+v) = %+v, want %+v", c.in.Op, c.in, got, c.want)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := map[string]Inst{
		"add r1, r2, r3":  {Op: ADD, Ra: R(1), Rb: R(2), Rc: R(3)},
		"add r1, 5, r3":   {Op: ADD, Ra: R(1), Imm: 5, UseImm: true, Rc: R(3)},
		"addt f1, f2, f3": {Op: ADDT, Ra: F(1), Rb: F(2), Rc: F(3)},
		"movi r9, 42":     {Op: MOVI, Rc: R(9), Imm: 42},
		"ldq r5, 16(r4)":  {Op: LDQ, Ra: R(4), Rc: R(5), Imm: 16},
		"stq r6, 16(r4)":  {Op: STQ, Ra: R(4), Rb: R(6), Imm: 16},
		"beq r7, 0x1000":  {Op: BEQ, Ra: R(7), Imm: 0x1000},
		"br 0x1000":       {Op: BR, Rc: ZeroReg, Imm: 0x1000},
		"br r26, 0x1000":  {Op: BR, Rc: RA, Imm: 0x1000},
		"jsr r26, (r8)":   {Op: JSR, Rb: R(8), Rc: RA},
		"ret (r26)":       {Op: RET, Rb: RA},
		"sqrtt f1, f3":    {Op: SQRTT, Ra: F(1), Rc: F(3)},
		"stt f6, 8(r4)":   {Op: STT, Ra: R(4), Rb: F(6), Imm: 8},
		"halt":            {Op: HALT},
		"out r2":          {Op: OUT, Ra: R(2)},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestProgramTextEnd(t *testing.T) {
	p := &Program{
		TextBase: DefaultTextBase,
		Text: []Inst{
			{Op: MOVI, Rc: R(1), Imm: 1},
			{Op: HALT},
		},
	}
	if got := p.TextEnd(); got != DefaultTextBase+8 {
		t.Errorf("TextEnd = %#x", got)
	}
}

func TestSortedSymbols(t *testing.T) {
	p := &Program{Symbols: map[string]uint64{"b": 8, "a": 4, "c": 4}}
	got := p.SortedSymbols()
	want := []string{"a", "c", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedSymbols = %v, want %v", got, want)
		}
	}
}
