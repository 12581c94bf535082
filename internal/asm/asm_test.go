package asm

import (
	"strings"
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func runProg(t *testing.T, p *isa.Program) *emu.Machine {
	t.Helper()
	m := emu.New(p)
	if _, err := m.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestAssembleSumLoop(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
        ; sum 1..10
        movi  r1, 10
        movi  r2, 0
loop:   add   r2, r1, r2
        sub   r1, 1, r1
        bne   r1, loop
        out   r2
        halt
`))
	if m.Regs[isa.R(2)] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[isa.R(2)])
	}
}

func TestAssembleDataAndLoads(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
        movi  r1, tbl
        ldq   r2, 0(r1)
        ldq   r3, 8(r1)
        add   r2, r3, r4
        ldbu  r5, bytes+1(r31)   ; absolute addressing via zero base
        halt
        .data
tbl:    .quad 40, 2
bytes:  .byte 9, 7
`))
	if m.Regs[isa.R(4)] != 42 {
		t.Errorf("r4 = %d, want 42", m.Regs[isa.R(4)])
	}
	if m.Regs[isa.R(5)] != 7 {
		t.Errorf("r5 = %d, want 7", m.Regs[isa.R(5)])
	}
}

func TestAssembleCallRet(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
        .entry main
double: add  r1, r1, r1
        ret
main:   movi r1, 21
        movi r9, double
        jsr  ra, (r9)
        halt
`))
	if m.Regs[isa.R(1)] != 42 {
		t.Errorf("r1 = %d, want 42", m.Regs[isa.R(1)])
	}
}

func TestAssembleFP(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
        movi  r1, 2
        cvtqt r1, f1
        mult  f1, f1, f2
        addt  f2, f1, f3     ; 6.0
        cvttq f3, r2
        halt
`))
	if m.Regs[isa.R(2)] != 6 {
		t.Errorf("r2 = %d, want 6", m.Regs[isa.R(2)])
	}
}

func TestAssembleStores(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
        movi  r1, buf
        movi  r2, 0x1234
        stq   r2, 0(r1)
        stw   r2, 8(r1)
        ldq   r3, 0(r1)
        ldw   r4, 8(r1)
        halt
        .data
buf:    .space 16
`))
	if m.Regs[isa.R(3)] != 0x1234 || m.Regs[isa.R(4)] != 0x1234 {
		t.Errorf("r3=%#x r4=%#x", m.Regs[isa.R(3)], m.Regs[isa.R(4)])
	}
}

func TestAssembleAsciiAndAlign(t *testing.T) {
	p := mustAssemble(t, `
        halt
        .data
s:      .asciiz "hi"
        .align 8
q:      .quad 1
`)
	sAddr, qAddr := p.Symbols["s"], p.Symbols["q"]
	if qAddr%8 != 0 {
		t.Errorf("q not aligned: %#x", qAddr)
	}
	if got := string(p.Data[sAddr-p.DataBase : sAddr-p.DataBase+3]); got != "hi\x00" {
		t.Errorf("string data = %q", got)
	}
}

func TestAssembleMovPseudo(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
        movi r1, 5
        mov  r2, r1
        halt
`))
	if m.Regs[isa.R(2)] != 5 {
		t.Errorf("mov failed: r2 = %d", m.Regs[isa.R(2)])
	}
}

func TestAssembleCharLiteral(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
        movi r1, 'A'
        halt
`))
	if m.Regs[isa.R(1)] != 'A' {
		t.Errorf("r1 = %d, want %d", m.Regs[isa.R(1)], 'A')
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":    "frobnicate r1, r2, r3\n",
		"duplicate symbol":    "x: nop\nx: nop\n",
		"undefined symbol":    "movi r1, nowhere\nhalt\n",
		"instruction in data": ".data\nadd r1, r2, r3\n",
		"bad register":        "add r99, r2, r3\n",
		"bad operand count":   "add r1, r2\n",
		"unknown directive":   ".bogus 3\n",
		"bad align":           ".data\n.align 3\n",
		"undefined entry":     ".entry missing\nhalt\n",
		"nop with operand":    "nop r1\n",
		"halt with operand":   "halt r1\n",
		"ret with two":        "ret r1, r2\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: assembled without error", name)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("%s: error type %T, want *Error", name, err)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus r1\n")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if aerr.Line != 3 {
		t.Errorf("error line = %d, want 3", aerr.Line)
	}
	if !strings.Contains(aerr.Error(), "line 3") {
		t.Errorf("error text %q lacks line info", aerr.Error())
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
main:   movi r1, 10
loop:   sub  r1, 1, r1
        bne  r1, loop
        halt
`
	p := mustAssemble(t, src)
	dis := Disassemble(p)
	for _, want := range []string{"main:", "loop:", "movi r1, 10", "sub r1, 1, r1", "halt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	m := runProg(t, mustAssemble(t, `
   # full line comment

        movi r1, 1   ; trailing
        halt
`))
	if m.Regs[isa.R(1)] != 1 {
		t.Error("comment handling broke execution")
	}
}

func TestMultipleLabelsSameAddress(t *testing.T) {
	p := mustAssemble(t, "a: b: nop\nhalt\n")
	if p.Symbols["a"] != p.Symbols["b"] {
		t.Error("stacked labels differ")
	}
}
