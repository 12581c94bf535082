package isa

// Canon returns the canonical form of the instruction, the assembler's
// normal form for everything it emits: operand fields that the opcode does
// not use are forced to the integer zero register, register operands land in
// the correct file (FP ops read/write F-space), and UseImm is cleared for
// formats that carry no register-vs-immediate distinction. Canon is
// idempotent: a canonical instruction is its own canonical form.
func (i Inst) Canon() Inst {
	c := i
	norm := func(r Reg, want bool) Reg { // want=true → FP file
		if r == NoReg || r.IsZero() {
			if want {
				return FZeroReg
			}
			return ZeroReg
		}
		if want && !r.IsFP() {
			return Reg(uint8(r)%NumIntRegs) + NumIntRegs
		}
		if !want && r.IsFP() {
			return Reg(uint8(r) % NumIntRegs)
		}
		if r >= NumRegs {
			return Reg(uint8(r) % NumRegs)
		}
		return r
	}
	zero := func() Reg { return ZeroReg }
	switch c.Op.Class() {
	case ClassNop, ClassHalt:
		c.Rb, c.Rc = zero(), zero()
		if c.Op == OUT {
			c.Ra = norm(c.Ra, false)
		} else {
			c.Ra = zero()
			c.Imm = 0
		}
		c.UseImm = false
		if c.Op != OUT {
			break
		}
		c.Imm = 0
	case ClassLoad:
		c.Ra, c.Rb, c.Rc = norm(c.Ra, false), zero(), norm(c.Rc, false)
		c.UseImm = true
	case ClassFPLoad:
		c.Ra, c.Rb, c.Rc = norm(c.Ra, false), zero(), norm(c.Rc, true)
		c.UseImm = true
	case ClassStore:
		c.Ra, c.Rb, c.Rc = norm(c.Ra, false), norm(c.Rb, false), zero()
		c.UseImm = true
	case ClassFPStore:
		c.Ra, c.Rb, c.Rc = norm(c.Ra, false), norm(c.Rb, true), zero()
		c.UseImm = true
	case ClassBranch:
		if c.Op == BR {
			c.Ra, c.Rb = zero(), zero()
			c.Rc = norm(c.Rc, false)
		} else {
			c.Ra, c.Rb, c.Rc = norm(c.Ra, false), zero(), zero()
		}
		c.UseImm = true
	case ClassFPBranch:
		c.Ra, c.Rb, c.Rc = norm(c.Ra, true), zero(), zero()
		c.UseImm = true
	case ClassJump:
		c.Ra = zero()
		c.Rb = norm(c.Rb, false)
		if c.Op == JSR {
			c.Rc = norm(c.Rc, false)
		} else {
			c.Rc = zero()
		}
		c.UseImm = false
		c.Imm = 0
	case ClassFPAdd, ClassFPMul, ClassFPDiv, ClassFPSqrt:
		fpA, fpC := true, true
		switch c.Op {
		case ITOF, CVTQT:
			fpA = false
		case FTOI, CVTTQ:
			fpC = false
		}
		c.Ra = norm(c.Ra, fpA)
		c.Rc = norm(c.Rc, fpC)
		if isUnary(c.Op) {
			c.Rb = Reg(FZeroReg)
			if !fpA {
				c.Rb = zero()
			}
		} else {
			c.Rb = norm(c.Rb, true)
		}
		c.UseImm = false
		c.Imm = 0
	default: // integer operate
		if c.Op == MOVI {
			c.Ra, c.Rb = zero(), zero()
			c.Rc = norm(c.Rc, false)
			c.UseImm = true
			break
		}
		c.Ra = norm(c.Ra, false)
		c.Rc = norm(c.Rc, false)
		if isUnary(c.Op) {
			c.Rb = zero()
			c.UseImm = false
			c.Imm = 0
		} else if c.UseImm {
			c.Rb = zero()
		} else {
			c.Rb = norm(c.Rb, false)
			c.Imm = 0
		}
	}
	return c
}

func isUnary(op Op) bool {
	switch op {
	case SEXTB, SEXTW, ITOF, FTOI, CVTQT, CVTTQ, SQRTT:
		return true
	}
	return false
}
