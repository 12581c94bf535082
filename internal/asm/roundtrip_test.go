package asm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ctcp/internal/isa"
)

// The disassembly text of most instructions is itself valid assembly; this
// property test generates random well-formed instructions, prints them,
// reassembles the listing, and checks the binary round trip.
func TestDisassemblyReassembles(t *testing.T) {
	gen := func(r *rand.Rand) isa.Inst {
		for {
			in := isa.Inst{
				Op:     isa.Op(r.Intn(isa.NumOps)),
				Ra:     isa.Reg(r.Intn(isa.NumRegs)),
				Rb:     isa.Reg(r.Intn(isa.NumRegs)),
				Rc:     isa.Reg(r.Intn(isa.NumRegs)),
				Imm:    int64(r.Intn(1 << 16)),
				UseImm: r.Intn(2) == 0,
			}
			in = in.Canon()
			// Branch targets must stay PC-aligned to be printable/parseable
			// as plain numbers.
			if in.Op.Class().IsControl() && in.Op.Class() != isa.ClassJump {
				in.Imm &^= 3
			}
			return in
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var insts []isa.Inst
		var src strings.Builder
		for k := 0; k < 24; k++ {
			in := gen(r)
			insts = append(insts, in)
			fmt.Fprintf(&src, "        %s\n", in)
		}
		src.WriteString("        halt\n")
		p, err := Assemble(src.String())
		if err != nil {
			t.Logf("assembling disassembly failed: %v\n%s", err, src.String())
			return false
		}
		if len(p.Text) != len(insts)+1 {
			t.Logf("instruction count %d != %d", len(p.Text), len(insts)+1)
			return false
		}
		for i, want := range insts {
			got := p.Text[i]
			// The printed form of a branch carries an absolute target; the
			// assembler reproduces it in Imm. All other fields must match the
			// canonical original exactly.
			if got != want.Canon() {
				t.Logf("inst %d: %q -> %+v, want %+v", i, want.String(), got, want.Canon())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Assembling the same source twice yields identical programs.
func TestAssembleDeterministic(t *testing.T) {
	src := `
main:   movi r1, 100
loop:   sub  r1, 1, r1
        stq  r1, 0(sp)
        ldq  r2, 0(sp)
        bne  r2, loop
        halt
        .data
x:      .quad 1, 2, 3
`
	a := mustAssemble(t, src)
	b := mustAssemble(t, src)
	if len(a.Text) != len(b.Text) {
		t.Fatal("text lengths differ")
	}
	for i := range a.Text {
		if a.Text[i] != b.Text[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	if string(a.Data) != string(b.Data) {
		t.Error("data differs")
	}
}

func TestSymbolArithmeticBothDirections(t *testing.T) {
	p := mustAssemble(t, `
        movi r1, tbl+16
        movi r2, end-8
        halt
        .data
tbl:    .space 32
end:    .byte 0
`)
	tbl := p.Symbols["tbl"]
	end := p.Symbols["end"]
	if got := uint64(p.Text[0].Imm); got != tbl+16 {
		t.Errorf("tbl+16 = %#x, want %#x", got, tbl+16)
	}
	if got := uint64(p.Text[1].Imm); got != end-8 {
		t.Errorf("end-8 = %#x, want %#x", got, end-8)
	}
}

func TestNegativeImmediates(t *testing.T) {
	p := mustAssemble(t, `
        movi r1, -42
        add  r1, -1, r2
        ldq  r3, -16(sp)
        halt
`)
	if p.Text[0].Imm != -42 || p.Text[1].Imm != -1 || p.Text[2].Imm != -16 {
		t.Errorf("negative immediates parsed as %d %d %d",
			p.Text[0].Imm, p.Text[1].Imm, p.Text[2].Imm)
	}
}

func TestRegisterAliases(t *testing.T) {
	p := mustAssemble(t, `
        add sp, 8, sp
        add gp, zero, ra
        stt fzero, 0(sp)
        halt
`)
	if p.Text[0].Ra != isa.SP || p.Text[0].Rc != isa.SP {
		t.Error("sp alias broken")
	}
	if p.Text[1].Ra != isa.GP || p.Text[1].Rc != isa.RA {
		t.Error("gp/ra alias broken")
	}
	if p.Text[2].Rb != isa.FZeroReg {
		t.Error("fzero alias broken")
	}
}
