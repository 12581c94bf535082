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

// Format is an opcode's operand layout: which of Ra, Rb, Rc and Imm it
// reads, writes, prints and parses. Each constant's comment gives the
// assembly syntax and the operand roles.
type Format uint8

const (
	// FormatNone: no operands (nop, halt).
	FormatNone Format = iota
	// FormatOut: out ra. Emits Ra to the output channel (debug/checksum sink).
	FormatOut
	// FormatOperate: op ra, rb|imm, rc. Rc = Ra op Rb (UseImm: Rc = Ra op Imm).
	FormatOperate
	// FormatUnary: op ra, rc. Rc = op(Ra); Rb is unused.
	FormatUnary
	// FormatMovi: movi rc, imm. Rc = Imm.
	FormatMovi
	// FormatLoad: op rc, disp(ra). Rc = MEM[Ra + Imm].
	FormatLoad
	// FormatStore: op rb, disp(ra). MEM[Ra + Imm] = Rb.
	FormatStore
	// FormatCondBranch: op ra, target. If cond(Ra) goto Imm (Imm holds the
	// absolute target address).
	FormatCondBranch
	// FormatBr: br [rc,] target. Goto Imm; Rc = return address if Rc is
	// not a zero register.
	FormatBr
	// FormatJsr: jsr rc, (rb). Rc = return address; goto [Rb].
	FormatJsr
	// FormatJump: op (rb). Goto [Rb] (jmp, ret).
	FormatJump
)

// FPRegs names which of an instruction's register fields live in the FP
// register file; the others are integer registers.
type FPRegs uint8

const (
	FPa FPRegs = 1 << iota
	FPb
	FPc
)

// OpInfo is the static description of one opcode.
type OpInfo struct {
	Name   string
	Class  Class
	Format Format
	FP     FPRegs
}

var opTable = [NumOps]OpInfo{
	NOP:    {"nop", ClassNop, FormatNone, 0},
	ADD:    {"add", ClassIntALU, FormatOperate, 0},
	SUB:    {"sub", ClassIntALU, FormatOperate, 0},
	AND:    {"and", ClassIntALU, FormatOperate, 0},
	OR:     {"or", ClassIntALU, FormatOperate, 0},
	XOR:    {"xor", ClassIntALU, FormatOperate, 0},
	ANDNOT: {"andnot", ClassIntALU, FormatOperate, 0},
	SLL:    {"sll", ClassIntALU, FormatOperate, 0},
	SRL:    {"srl", ClassIntALU, FormatOperate, 0},
	SRA:    {"sra", ClassIntALU, FormatOperate, 0},
	CMPEQ:  {"cmpeq", ClassIntALU, FormatOperate, 0},
	CMPLT:  {"cmplt", ClassIntALU, FormatOperate, 0},
	CMPLE:  {"cmple", ClassIntALU, FormatOperate, 0},
	CMPULT: {"cmpult", ClassIntALU, FormatOperate, 0},
	CMPULE: {"cmpule", ClassIntALU, FormatOperate, 0},
	SEXTB:  {"sextb", ClassIntALU, FormatUnary, 0},
	SEXTW:  {"sextw", ClassIntALU, FormatUnary, 0},
	MOVI:   {"movi", ClassIntALU, FormatMovi, 0},
	MUL:    {"mul", ClassIntMul, FormatOperate, 0},
	DIV:    {"div", ClassIntDiv, FormatOperate, 0},
	REM:    {"rem", ClassIntDiv, FormatOperate, 0},
	LDQ:    {"ldq", ClassLoad, FormatLoad, 0},
	LDL:    {"ldl", ClassLoad, FormatLoad, 0},
	LDW:    {"ldw", ClassLoad, FormatLoad, 0},
	LDBU:   {"ldbu", ClassLoad, FormatLoad, 0},
	STQ:    {"stq", ClassStore, FormatStore, 0},
	STL:    {"stl", ClassStore, FormatStore, 0},
	STW:    {"stw", ClassStore, FormatStore, 0},
	STB:    {"stb", ClassStore, FormatStore, 0},
	BEQ:    {"beq", ClassBranch, FormatCondBranch, 0},
	BNE:    {"bne", ClassBranch, FormatCondBranch, 0},
	BLT:    {"blt", ClassBranch, FormatCondBranch, 0},
	BLE:    {"ble", ClassBranch, FormatCondBranch, 0},
	BGT:    {"bgt", ClassBranch, FormatCondBranch, 0},
	BGE:    {"bge", ClassBranch, FormatCondBranch, 0},
	BR:     {"br", ClassBranch, FormatBr, 0},
	JSR:    {"jsr", ClassJump, FormatJsr, 0},
	JMP:    {"jmp", ClassJump, FormatJump, 0},
	RET:    {"ret", ClassJump, FormatJump, 0},
	ADDT:   {"addt", ClassFPAdd, FormatOperate, FPa | FPb | FPc},
	SUBT:   {"subt", ClassFPAdd, FormatOperate, FPa | FPb | FPc},
	CMPTEQ: {"cmpteq", ClassFPAdd, FormatOperate, FPa | FPb | FPc},
	CMPTLT: {"cmptlt", ClassFPAdd, FormatOperate, FPa | FPb | FPc},
	CMPTLE: {"cmptle", ClassFPAdd, FormatOperate, FPa | FPb | FPc},
	CVTQT:  {"cvtqt", ClassFPAdd, FormatUnary, FPc},
	CVTTQ:  {"cvttq", ClassFPAdd, FormatUnary, FPa},
	ITOF:   {"itof", ClassFPAdd, FormatUnary, FPc},
	FTOI:   {"ftoi", ClassFPAdd, FormatUnary, FPa},
	MULT:   {"mult", ClassFPMul, FormatOperate, FPa | FPb | FPc},
	DIVT:   {"divt", ClassFPDiv, FormatOperate, FPa | FPb | FPc},
	SQRTT:  {"sqrtt", ClassFPSqrt, FormatUnary, FPa | FPc},
	LDT:    {"ldt", ClassFPLoad, FormatLoad, FPc},
	STT:    {"stt", ClassFPStore, FormatStore, FPb},
	FBEQ:   {"fbeq", ClassFPBranch, FormatCondBranch, FPa},
	FBNE:   {"fbne", ClassFPBranch, FormatCondBranch, FPa},
	HALT:   {"halt", ClassHalt, FormatNone, 0},
	OUT:    {"out", ClassHalt, FormatOut, 0},
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
		t[op].cond = opTable[op].Format == FormatCondBranch
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

// Inst is one decoded TRISC-64 instruction. Its opcode's Format says which
// fields it uses and in which role.
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
	switch i.Op.Info().Format {
	case FormatOperate, FormatUnary, FormatMovi, FormatLoad, FormatBr, FormatJsr:
		if i.Rc != NoReg && !i.Rc.IsZero() {
			return i.Rc
		}
	}
	return NoReg
}

// Srcs returns the register sources in (RS1, RS2) order, using NoReg for
// absent operands. Zero registers never appear: reading them creates no
// dependence. The RS1/RS2 naming matches the paper's critical-input analysis:
// RS1 is the first (address/left) operand, RS2 the second (data/right).
func (i Inst) Srcs() (s1, s2 Reg) {
	s1, s2 = NoReg, NoReg
	switch i.Op.Info().Format {
	case FormatOut, FormatUnary, FormatLoad, FormatCondBranch:
		s1 = i.Ra
	case FormatOperate:
		s1 = i.Ra
		if !i.UseImm {
			s2 = i.Rb
		}
	case FormatStore:
		s1, s2 = i.Ra, i.Rb
	case FormatJsr, FormatJump:
		s1 = i.Rb
	}
	if s1 != NoReg && s1.IsZero() {
		s1 = NoReg
	}
	if s2 != NoReg && s2.IsZero() {
		s2 = NoReg
	}
	return s1, s2
}

// IsCond reports whether the instruction is a conditional branch.
//
//ctcp:inline
func (i Inst) IsCond() bool { return opStatic[i.Op].cond }

// IsControl reports whether the instruction can redirect the PC.
//
//ctcp:inline
func (i Inst) IsControl() bool { return i.Op.Class().IsControl() }

// String disassembles the instruction in its format's assembly syntax.
func (i Inst) String() string {
	name := i.Op.String()
	switch i.Op.Info().Format {
	case FormatOut:
		return fmt.Sprintf("%s %s", name, i.Ra)
	case FormatOperate:
		if i.UseImm {
			return fmt.Sprintf("%s %s, %d, %s", name, i.Ra, i.Imm, i.Rc)
		}
		return fmt.Sprintf("%s %s, %s, %s", name, i.Ra, i.Rb, i.Rc)
	case FormatUnary:
		return fmt.Sprintf("%s %s, %s", name, i.Ra, i.Rc)
	case FormatMovi:
		return fmt.Sprintf("%s %s, %d", name, i.Rc, i.Imm)
	case FormatLoad:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rc, i.Imm, i.Ra)
	case FormatStore:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rb, i.Imm, i.Ra)
	case FormatCondBranch:
		return fmt.Sprintf("%s %s, 0x%x", name, i.Ra, uint64(i.Imm))
	case FormatBr:
		if i.Rc != NoReg && !i.Rc.IsZero() {
			return fmt.Sprintf("%s %s, 0x%x", name, i.Rc, uint64(i.Imm))
		}
		return fmt.Sprintf("%s 0x%x", name, uint64(i.Imm))
	case FormatJsr:
		return fmt.Sprintf("%s %s, (%s)", name, i.Rc, i.Rb)
	case FormatJump:
		return fmt.Sprintf("%s (%s)", name, i.Rb)
	}
	return name
}

// PCStride is the architectural distance between consecutive instructions.
const PCStride = 4
