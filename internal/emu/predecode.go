package emu

import "ctcp/internal/isa"

// This file implements the predecoded micro-op layer of the interpreter. At
// construction the machine lowers every static instruction of the program
// into a dispatch-ready uop record in a dense PC-indexed table: the operand
// kind is resolved (register vs. immediate variants are distinct uop kinds),
// immediates are pre-extended (and pre-masked for shifts), direct control
// targets are pre-validated, zero-register and absent operands are resolved
// away, and the invariant part of the instruction's Committed record (PC,
// decoded Inst, fall-through NextPC, memory access size) is stored as a
// template. StepInto then collapses to: one bounds-checked index, one struct
// copy, one switch on a small dense tag.
//
// The table is derived state. It is a pure function of the immutable program
// image, so Reset keeps it and Checkpoint neither encodes nor rebuilds it —
// checkpoints stay bit-compatible with the pre-predecode encoding
// (DESIGN.md §14).
//
// Every instruction lowers to a uop, so StepInto is the only interpreter.
// The shapes that can fault statically (undefined opcodes, direct control
// with a misaligned target) lower to uFault. The original switch-on-opcode
// interpreter survives only in the tests, as the reference the predecoded
// dispatch is cross-checked against (ref_test.go).

// uopKind is the dense dispatch tag of one predecoded micro-op.
type uopKind uint8

const (
	// uFault is an undefined opcode, which always faults, or direct control
	// with a misaligned target: BR writes its link and faults, a conditional
	// branch faults only when taken. See Machine.faultUop.
	uFault uopKind = iota
	// uNop covers NOP and every operate-format instruction whose destination
	// is a hardwired-zero register or absent: architecturally side-effect
	// free.
	uNop

	// Integer operate, register/immediate variants. rc is always a real
	// (writable) register: discarded-destination forms lower to uNop.
	uAddRR
	uAddRI
	uSubRR
	uSubRI
	uAndRR
	uAndRI
	uOrRR
	uOrRI
	uXorRR
	uXorRI
	uAndNotRR
	uAndNotRI
	uSllRR
	uSllRI // imm pre-masked to 0..63
	uSrlRR
	uSrlRI
	uSraRR
	uSraRI
	uCmpEqRR
	uCmpEqRI
	uCmpLtRR
	uCmpLtRI
	uCmpLeRR
	uCmpLeRI
	uCmpUltRR
	uCmpUltRI
	uCmpUleRR
	uCmpUleRI
	uMulRR
	uMulRI
	uDivRR
	uDivRI
	uRemRR
	uRemRI
	uSextB
	uSextW
	uMovi

	// Loads: EA = Regs[ra] + imm; tmpl.Size carries the width. uLd8 covers
	// LDQ and LDT (both move 8 raw bytes; the destination index encodes the
	// register space). uLdDiscard performs the access but discards the value
	// (zero-register destination) — the timing model still needs EA/Size.
	uLd8
	uLd4S // LDL: 4 bytes, sign-extended
	uLd2
	uLd1
	uLdDiscard

	// Stores: width in the kind, value from Regs[rb].
	uSt8
	uSt4
	uSt2
	uSt1

	// Conditional branches test Regs[ra] (as int64) or its FP bit pattern;
	// imm is the pre-validated absolute target.
	uBeq
	uBne
	uBlt
	uBle
	uBgt
	uBge
	uFbeq
	uFbne

	// Unconditional direct control; uBrLink also writes the return address.
	uBr
	uBrLink
	// Register-indirect control; uJsr writes the return address, uJmp covers
	// JMP/RET and linkless JSR. Target alignment is checked at run time.
	uJsr
	uJmp

	// Floating point (always register operands).
	uAddT
	uSubT
	uMulT
	uDivT
	uSqrtT
	uCmpTEq
	uCmpTLt
	uCmpTLe
	uCvtQT
	uCvtTQ
	uMove // ITOF/FTOI: raw 64-bit move across register spaces

	// Machine control.
	uHalt
	uOut
)

// uop is one predecoded micro-op.
type uop struct {
	// tmpl is the invariant part of the instruction's Committed record: PC,
	// decoded Inst and its operands always, NextPC preset to the
	// fall-through address, Size preset for memory ops. The dispatch copies
	// it wholesale and only touches the fields the op actually produces.
	tmpl Committed
	// imm is the operand-kind-resolved immediate: sign-extended for
	// arithmetic, pre-masked for shifts, the absolute target for direct
	// control, the raw displacement for memory.
	imm  uint64
	kind uopKind
	// ra, rb are resolved source-register indices: hardwired-zero and absent
	// operands point at the always-zero slot, so reads never branch. rc is a
	// resolved destination index and only present on kinds that write.
	ra, rb, rc uint8
}

// zeroSrc is the register index absent/zero sources resolve to. Regs[31]
// (R31) is hardwired zero: Reset clears it and no interpreter path ever
// writes it, so reading it always yields 0 for both register spaces.
const zeroSrc = uint8(isa.ZeroReg)

// srcIdx resolves a source operand to a register index.
func srcIdx(r isa.Reg) uint8 {
	if r == isa.NoReg || r.IsZero() {
		return zeroSrc
	}
	return uint8(r)
}

// realDest reports whether the instruction writes an architecturally visible
// destination register.
func realDest(inst isa.Inst) bool {
	return inst.Dest() != isa.NoReg
}

// aligned reports whether a static control target can be taken without
// faulting.
func aligned(target uint64) bool { return target%isa.PCStride == 0 }

// predecode builds the dense uop table for the loaded program. It runs once
// per Machine construction (the program image is immutable), so its cost and
// allocations are amortized over the whole run.
func (m *Machine) predecode() {
	text := m.prog.Text
	m.predBase = m.prog.TextBase
	m.pred = make([]uop, len(text))
	for i := range text {
		inst := text[i]
		pc := m.predBase + uint64(i)*isa.PCStride
		u := &m.pred[i]
		u.tmpl = Committed{PC: pc, Inst: inst, NextPC: pc + isa.PCStride}
		u.tmpl.Decode()
		u.ra = srcIdx(inst.Ra)
		u.rb = srcIdx(inst.Rb)
		u.rc = uint8(inst.Rc)
		u.imm = uint64(inst.Imm)
		u.kind = lowerKind(inst, u)
	}
}

// opRR/opRI pairs for the binary integer operate ops, indexed by opcode.
type aluKinds struct{ rr, ri uopKind }

var aluTable = map[isa.Op]aluKinds{
	isa.ADD:    {uAddRR, uAddRI},
	isa.SUB:    {uSubRR, uSubRI},
	isa.AND:    {uAndRR, uAndRI},
	isa.OR:     {uOrRR, uOrRI},
	isa.XOR:    {uXorRR, uXorRI},
	isa.ANDNOT: {uAndNotRR, uAndNotRI},
	isa.SLL:    {uSllRR, uSllRI},
	isa.SRL:    {uSrlRR, uSrlRI},
	isa.SRA:    {uSraRR, uSraRI},
	isa.CMPEQ:  {uCmpEqRR, uCmpEqRI},
	isa.CMPLT:  {uCmpLtRR, uCmpLtRI},
	isa.CMPLE:  {uCmpLeRR, uCmpLeRI},
	isa.CMPULT: {uCmpUltRR, uCmpUltRI},
	isa.CMPULE: {uCmpUleRR, uCmpUleRI},
	isa.MUL:    {uMulRR, uMulRI},
	isa.DIV:    {uDivRR, uDivRI},
	isa.REM:    {uRemRR, uRemRI},
}

var condKind = map[isa.Op]uopKind{
	isa.BEQ:  uBeq,
	isa.BNE:  uBne,
	isa.BLT:  uBlt,
	isa.BLE:  uBle,
	isa.BGT:  uBgt,
	isa.BGE:  uBge,
	isa.FBEQ: uFbeq,
	isa.FBNE: uFbne,
}

var fpKind = map[isa.Op]uopKind{
	isa.ADDT:   uAddT,
	isa.SUBT:   uSubT,
	isa.MULT:   uMulT,
	isa.DIVT:   uDivT,
	isa.SQRTT:  uSqrtT,
	isa.CMPTEQ: uCmpTEq,
	isa.CMPTLT: uCmpTLt,
	isa.CMPTLE: uCmpTLe,
	isa.CVTQT:  uCvtQT,
	isa.CVTTQ:  uCvtTQ,
	isa.ITOF:   uMove,
	isa.FTOI:   uMove,
}

// lowerKind classifies one instruction, refining u's resolved operands where
// the kind calls for it (shift masking, access sizes).
func lowerKind(inst isa.Inst, u *uop) uopKind {
	switch inst.Op {
	case isa.NOP:
		return uNop

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.ANDNOT,
		isa.SLL, isa.SRL, isa.SRA,
		isa.CMPEQ, isa.CMPLT, isa.CMPLE, isa.CMPULT, isa.CMPULE,
		isa.MUL, isa.DIV, isa.REM:
		if !realDest(inst) {
			return uNop
		}
		k := aluTable[inst.Op]
		if !inst.UseImm {
			return k.rr
		}
		if inst.Op == isa.SLL || inst.Op == isa.SRL || inst.Op == isa.SRA {
			u.imm &= 63
		}
		return k.ri

	case isa.SEXTB:
		if !realDest(inst) {
			return uNop
		}
		return uSextB
	case isa.SEXTW:
		if !realDest(inst) {
			return uNop
		}
		return uSextW
	case isa.MOVI:
		if !realDest(inst) {
			return uNop
		}
		return uMovi

	case isa.LDQ, isa.LDT:
		u.tmpl.Size = 8
		if !realDest(inst) {
			return uLdDiscard
		}
		return uLd8
	case isa.LDL:
		u.tmpl.Size = 4
		if !realDest(inst) {
			return uLdDiscard
		}
		return uLd4S
	case isa.LDW:
		u.tmpl.Size = 2
		if !realDest(inst) {
			return uLdDiscard
		}
		return uLd2
	case isa.LDBU:
		u.tmpl.Size = 1
		if !realDest(inst) {
			return uLdDiscard
		}
		return uLd1

	case isa.STQ, isa.STT:
		u.tmpl.Size = 8
		return uSt8
	case isa.STL:
		u.tmpl.Size = 4
		return uSt4
	case isa.STW:
		u.tmpl.Size = 2
		return uSt2
	case isa.STB:
		u.tmpl.Size = 1
		return uSt1

	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE, isa.FBEQ, isa.FBNE:
		if !aligned(u.imm) {
			return uFault // faults only when taken
		}
		return condKind[inst.Op]
	case isa.BR:
		if !aligned(u.imm) {
			return uFault
		}
		if realDest(inst) {
			return uBrLink
		}
		return uBr
	case isa.JSR:
		if realDest(inst) {
			return uJsr
		}
		return uJmp
	case isa.JMP, isa.RET:
		return uJmp

	case isa.ADDT, isa.SUBT, isa.MULT, isa.DIVT, isa.SQRTT,
		isa.CMPTEQ, isa.CMPTLT, isa.CMPTLE, isa.CVTQT, isa.CVTTQ,
		isa.ITOF, isa.FTOI:
		if !realDest(inst) {
			return uNop
		}
		return fpKind[inst.Op]

	case isa.HALT:
		return uHalt
	case isa.OUT:
		return uOut
	}
	return uFault // undefined opcode
}
