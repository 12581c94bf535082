// Package isa defines TRISC-64, the 64-bit RISC instruction set executed by the
// CTCP simulator. The ISA is Alpha-flavored: 32 integer registers (R31 reads as
// zero), 32 floating-point registers (F31 reads as zero), fixed-width
// instructions at 4-byte PC stride, three-operand integer/FP operate formats,
// base+displacement memory addressing, and compare-against-zero conditional
// branches.
//
// The package is pure data definition: opcodes, operand roles, functional-unit
// classes, register naming, and the canonical instruction form (see
// canon.go). Execution semantics live in internal/emu; timing lives in
// internal/pipeline.
package isa

import "fmt"

// Reg names one architectural register. Integer registers occupy 0–31 and
// floating-point registers 32–63, so a single dependence-tracking namespace
// covers both files. R31 and F31 are hardwired zero sources and discard writes.
type Reg uint8

// Register-space constants.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// ZeroReg is the hardwired-zero integer register (R31).
	ZeroReg Reg = 31
	// FZeroReg is the hardwired-zero floating-point register (F31 = reg 63).
	FZeroReg Reg = 63
	// NoReg marks an absent operand.
	NoReg Reg = 255

	// RA is the conventional link (return-address) register, R26.
	RA Reg = 26
	// SP is the conventional stack pointer, R30.
	SP Reg = 30
	// GP is the conventional global/data pointer, R29.
	GP Reg = 29
)

// R returns the i'th integer register.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// F returns the i'th floating-point register.
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return Reg(NumIntRegs + i)
}

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= NumIntRegs && r < NumRegs }

// IsZero reports whether r is one of the hardwired zero registers.
func (r Reg) IsZero() bool { return r == ZeroReg || r == FZeroReg }

// String renders the architectural register name (r0…r31, f0…f31).
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r < NumIntRegs:
		return fmt.Sprintf("r%d", r)
	case r < NumRegs:
		return fmt.Sprintf("f%d", r-NumIntRegs)
	default:
		return fmt.Sprintf("reg?%d", uint8(r))
	}
}

// Op enumerates TRISC-64 opcodes.
type Op uint8

// Opcodes. The groups mirror the special-purpose functional units of the
// clustered core (Bhargava & John, Fig. 3): simple integer, complex integer,
// integer memory, branch, basic FP, complex FP, and FP memory.
const (
	NOP Op = iota

	// Simple integer operate: Rc = Ra op (Rb | Imm).
	ADD
	SUB
	AND
	OR
	XOR
	ANDNOT
	SLL
	SRL
	SRA
	CMPEQ
	CMPLT
	CMPLE
	CMPULT
	CMPULE
	SEXTB
	SEXTW
	// MOVI: Rc = Imm (32-bit signed immediate materialization).
	MOVI

	// Complex integer: multiply/divide/remainder.
	MUL
	DIV
	REM

	// Integer memory: loads Rc = MEM[Ra+Imm], stores MEM[Ra+Imm] = Rb.
	LDQ
	LDL
	LDW
	LDBU
	STQ
	STL
	STW
	STB

	// Control: conditional branches test Ra against zero; BR is unconditional
	// (optionally linking Rc); JSR/JMP/RET are register-indirect.
	BEQ
	BNE
	BLT
	BLE
	BGT
	BGE
	BR
	JSR
	JMP
	RET

	// Basic floating point: Fc = Fa op Fb; compares write 0.0/2.0 like Alpha.
	ADDT
	SUBT
	CMPTEQ
	CMPTLT
	CMPTLE
	CVTQT
	CVTTQ
	ITOF
	FTOI

	// Complex floating point.
	MULT
	DIVT
	SQRTT

	// FP memory.
	LDT
	STT

	// FP branches test Fa against zero.
	FBEQ
	FBNE

	// Machine control.
	HALT
	OUT

	numOps
)

// NumOps is the number of defined opcodes (useful for table sizing and fuzzing).
const NumOps = int(numOps)

// Class groups opcodes by the functional unit that executes them and by the
// reservation station that buffers them.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional + unconditional direct branches
	ClassJump   // register-indirect control flow (JSR/JMP/RET)
	ClassFPAdd  // basic FP (add/sub/compare/convert)
	ClassFPMul
	ClassFPDiv
	ClassFPSqrt
	ClassFPLoad
	ClassFPStore
	ClassFPBranch
	ClassHalt
	NumClasses
)

// String returns a short class mnemonic.
func (c Class) String() string {
	names := [...]string{"nop", "ialu", "imul", "idiv", "load", "store", "br",
		"jmp", "fpadd", "fpmul", "fpdiv", "fpsqrt", "fpload", "fpstore", "fbr", "halt"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("class?%d", uint8(c))
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool {
	return c == ClassLoad || c == ClassStore || c == ClassFPLoad || c == ClassFPStore
}

// IsLoad reports whether the class reads data memory.
func (c Class) IsLoad() bool { return c == ClassLoad || c == ClassFPLoad }

// IsStore reports whether the class writes data memory.
func (c Class) IsStore() bool { return c == ClassStore || c == ClassFPStore }

// IsControl reports whether the class can redirect the PC. One bit test
// costs the inliner fewer nodes than three compares, which keeps the fetch
// stage's handleControl inside the budget.
//
//ctcp:inline
func (c Class) IsControl() bool {
	return uint32(1)<<c&(1<<ClassBranch|1<<ClassJump|1<<ClassFPBranch) != 0
}

// OpInfo is the static description of one opcode.
type OpInfo struct {
	Name  string
	Class Class
	// HasDest reports whether the op writes a destination register (Rc).
	HasDest bool
	// Conditional marks conditional control flow.
	Conditional bool
}

var opTable = [NumOps]OpInfo{
	NOP:    {"nop", ClassNop, false, false},
	ADD:    {"add", ClassIntALU, true, false},
	SUB:    {"sub", ClassIntALU, true, false},
	AND:    {"and", ClassIntALU, true, false},
	OR:     {"or", ClassIntALU, true, false},
	XOR:    {"xor", ClassIntALU, true, false},
	ANDNOT: {"andnot", ClassIntALU, true, false},
	SLL:    {"sll", ClassIntALU, true, false},
	SRL:    {"srl", ClassIntALU, true, false},
	SRA:    {"sra", ClassIntALU, true, false},
	CMPEQ:  {"cmpeq", ClassIntALU, true, false},
	CMPLT:  {"cmplt", ClassIntALU, true, false},
	CMPLE:  {"cmple", ClassIntALU, true, false},
	CMPULT: {"cmpult", ClassIntALU, true, false},
	CMPULE: {"cmpule", ClassIntALU, true, false},
	SEXTB:  {"sextb", ClassIntALU, true, false},
	SEXTW:  {"sextw", ClassIntALU, true, false},
	MOVI:   {"movi", ClassIntALU, true, false},
	MUL:    {"mul", ClassIntMul, true, false},
	DIV:    {"div", ClassIntDiv, true, false},
	REM:    {"rem", ClassIntDiv, true, false},
	LDQ:    {"ldq", ClassLoad, true, false},
	LDL:    {"ldl", ClassLoad, true, false},
	LDW:    {"ldw", ClassLoad, true, false},
	LDBU:   {"ldbu", ClassLoad, true, false},
	STQ:    {"stq", ClassStore, false, false},
	STL:    {"stl", ClassStore, false, false},
	STW:    {"stw", ClassStore, false, false},
	STB:    {"stb", ClassStore, false, false},
	BEQ:    {"beq", ClassBranch, false, true},
	BNE:    {"bne", ClassBranch, false, true},
	BLT:    {"blt", ClassBranch, false, true},
	BLE:    {"ble", ClassBranch, false, true},
	BGT:    {"bgt", ClassBranch, false, true},
	BGE:    {"bge", ClassBranch, false, true},
	BR:     {"br", ClassBranch, true, false},
	JSR:    {"jsr", ClassJump, true, false},
	JMP:    {"jmp", ClassJump, false, false},
	RET:    {"ret", ClassJump, false, false},
	ADDT:   {"addt", ClassFPAdd, true, false},
	SUBT:   {"subt", ClassFPAdd, true, false},
	CMPTEQ: {"cmpteq", ClassFPAdd, true, false},
	CMPTLT: {"cmptlt", ClassFPAdd, true, false},
	CMPTLE: {"cmptle", ClassFPAdd, true, false},
	CVTQT:  {"cvtqt", ClassFPAdd, true, false},
	CVTTQ:  {"cvttq", ClassFPAdd, true, false},
	ITOF:   {"itof", ClassFPAdd, true, false},
	FTOI:   {"ftoi", ClassFPAdd, true, false},
	MULT:   {"mult", ClassFPMul, true, false},
	DIVT:   {"divt", ClassFPDiv, true, false},
	SQRTT:  {"sqrtt", ClassFPSqrt, true, false},
	LDT:    {"ldt", ClassFPLoad, true, false},
	STT:    {"stt", ClassFPStore, false, false},
	FBEQ:   {"fbeq", ClassFPBranch, false, true},
	FBNE:   {"fbne", ClassFPBranch, false, true},
	HALT:   {"halt", ClassHalt, false, false},
	OUT:    {"out", ClassHalt, false, false},
}

// Info returns the static description of op.
func (op Op) Info() OpInfo {
	if int(op) >= NumOps {
		return OpInfo{Name: fmt.Sprintf("op?%d", uint8(op)), Class: ClassNop}
	}
	return opTable[op]
}

// opStatic is the part of opTable the per-instruction accessors read, indexed
// by every Op value: an op past NumOps reads Info's fallback, ClassNop and
// not conditional. Class, IsCond and IsControl read it instead of copying a
// whole OpInfo (its Name string included) per call, which keeps them inside
// the inlining budget.
var opStatic = func() (t [256]struct {
	class Class
	cond  bool
}) {
	for op := range opTable {
		t[op].class = opTable[op].Class
		t[op].cond = opTable[op].Conditional
	}
	return t
}()

// Class returns the functional-unit class of op.
//
//ctcp:inline
func (op Op) Class() Class { return opStatic[op].class }

// String returns the opcode mnemonic.
func (op Op) String() string { return op.Info().Name }

// OpByName looks up an opcode by mnemonic; ok is false if unknown.
func OpByName(name string) (Op, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var nameToOp = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); int(op) < NumOps; op++ {
		m[opTable[op].Name] = op
	}
	return m
}()

// Inst is one decoded TRISC-64 instruction.
//
// Operand roles by format:
//
//	operate:   Rc = Ra op Rb        (UseImm: Rc = Ra op Imm)
//	movi:      Rc = Imm
//	load:      Rc = MEM[Ra + Imm]
//	store:     MEM[Ra + Imm] = Rb
//	branch:    if cond(Ra) goto Imm (Imm holds the absolute target address)
//	br:        goto Imm, Rc = return address if Rc != zero
//	jsr:       Rc = return address; goto [Rb]
//	jmp/ret:   goto [Rb]
//	out:       emit Ra to the output channel (debug/checksum sink)
type Inst struct {
	Op     Op
	Ra     Reg
	Rb     Reg
	Rc     Reg
	Imm    int64
	UseImm bool
}

// Dest returns the destination register, or NoReg if the instruction does not
// write one (stores, branches without link, halt). Writes to the zero
// registers are reported as NoReg: they create no dependence.
func (i Inst) Dest() Reg {
	info := i.Op.Info()
	if !info.HasDest || i.Rc.IsZero() || i.Rc == NoReg {
		return NoReg
	}
	return i.Rc
}

// Srcs returns the register sources in (RS1, RS2) order, using NoReg for
// absent operands. Zero registers never appear: reading them creates no
// dependence. The RS1/RS2 naming matches the paper's critical-input analysis:
// RS1 is the first (address/left) operand, RS2 the second (data/right).
func (i Inst) Srcs() (s1, s2 Reg) {
	s1, s2 = NoReg, NoReg
	switch i.Op.Class() {
	case ClassNop, ClassHalt:
		if i.Op == OUT {
			s1 = i.Ra
		}
	case ClassLoad, ClassFPLoad:
		s1 = i.Ra
	case ClassStore, ClassFPStore:
		s1, s2 = i.Ra, i.Rb
	case ClassBranch, ClassFPBranch:
		if i.Op != BR {
			s1 = i.Ra
		}
	case ClassJump:
		s1 = i.Rb
	default: // operate formats
		if i.Op == MOVI {
			break
		}
		s1 = i.Ra
		if !i.UseImm && !isUnary(i.Op) {
			s2 = i.Rb
		}
	}
	if s1 != NoReg && s1.IsZero() {
		s1 = NoReg
	}
	if s2 != NoReg && s2.IsZero() {
		s2 = NoReg
	}
	return s1, s2
}

// NumSrcs returns how many register sources the instruction has.
func (i Inst) NumSrcs() int {
	s1, s2 := i.Srcs()
	n := 0
	if s1 != NoReg {
		n++
	}
	if s2 != NoReg {
		n++
	}
	return n
}

// IsCond reports whether the instruction is a conditional branch.
//
//ctcp:inline
func (i Inst) IsCond() bool { return opStatic[i.Op].cond }

// IsControl reports whether the instruction can redirect the PC.
//
//ctcp:inline
func (i Inst) IsControl() bool { return i.Op.Class().IsControl() }

// IsIndirect reports whether the control target comes from a register.
func (i Inst) IsIndirect() bool { return i.Op.Class() == ClassJump }

// String disassembles the instruction.
func (i Inst) String() string {
	name := i.Op.String()
	switch i.Op.Class() {
	case ClassNop:
		return name
	case ClassHalt:
		if i.Op == OUT {
			return fmt.Sprintf("%s %s", name, i.Ra)
		}
		return name
	case ClassLoad, ClassFPLoad:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rc, i.Imm, i.Ra)
	case ClassStore, ClassFPStore:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rb, i.Imm, i.Ra)
	case ClassBranch:
		if i.Op == BR {
			if i.Rc != NoReg && !i.Rc.IsZero() {
				return fmt.Sprintf("%s %s, 0x%x", name, i.Rc, uint64(i.Imm))
			}
			return fmt.Sprintf("%s 0x%x", name, uint64(i.Imm))
		}
		return fmt.Sprintf("%s %s, 0x%x", name, i.Ra, uint64(i.Imm))
	case ClassFPBranch:
		return fmt.Sprintf("%s %s, 0x%x", name, i.Ra, uint64(i.Imm))
	case ClassJump:
		switch i.Op {
		case JSR:
			return fmt.Sprintf("%s %s, (%s)", name, i.Rc, i.Rb)
		default:
			return fmt.Sprintf("%s (%s)", name, i.Rb)
		}
	default:
		if i.Op == MOVI {
			return fmt.Sprintf("%s %s, %d", name, i.Rc, i.Imm)
		}
		if i.Op == SEXTB || i.Op == SEXTW || i.Op == ITOF || i.Op == FTOI ||
			i.Op == CVTQT || i.Op == CVTTQ || i.Op == SQRTT {
			return fmt.Sprintf("%s %s, %s", name, i.Ra, i.Rc)
		}
		if i.UseImm {
			return fmt.Sprintf("%s %s, %d, %s", name, i.Ra, i.Imm, i.Rc)
		}
		return fmt.Sprintf("%s %s, %s, %s", name, i.Ra, i.Rb, i.Rc)
	}
}

// PCStride is the architectural distance between consecutive instructions.
const PCStride = 4
