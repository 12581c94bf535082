package isa

// Canon returns the canonical form of the instruction, the assembler's
// normal form for everything it emits. It fills only the fields the opcode's
// Format uses, each register in the file its FP column names; every other
// field is the integer zero register, except that a unary op's unused Rb is
// the zero register of Ra's file. An integer operate keeps its
// register-or-immediate choice (Imm only with UseImm); movi, loads, stores
// and branches keep Imm, their constant, displacement or target, with UseImm
// set; every other format clears both. Canon is idempotent: a canonical
// instruction is its own canonical form.
func (i Inst) Canon() Inst {
	info := i.Op.Info()
	reg := func(r Reg, f FPRegs) Reg { return canonReg(r, info.FP&f != 0) }
	c := Inst{Op: i.Op, Ra: ZeroReg, Rb: ZeroReg, Rc: ZeroReg}
	switch info.Format {
	case FormatOut:
		c.Ra = reg(i.Ra, FPa)
	case FormatOperate:
		c.Ra, c.Rc = reg(i.Ra, FPa), reg(i.Rc, FPc)
		if i.UseImm && info.FP == 0 {
			c.Imm, c.UseImm = i.Imm, true
		} else {
			c.Rb = reg(i.Rb, FPb)
		}
	case FormatUnary:
		c.Ra, c.Rc = reg(i.Ra, FPa), reg(i.Rc, FPc)
		c.Rb = reg(ZeroReg, FPa)
	case FormatMovi, FormatBr:
		c.Rc = reg(i.Rc, FPc)
	case FormatLoad:
		c.Ra, c.Rc = reg(i.Ra, FPa), reg(i.Rc, FPc)
	case FormatStore:
		c.Ra, c.Rb = reg(i.Ra, FPa), reg(i.Rb, FPb)
	case FormatCondBranch:
		c.Ra = reg(i.Ra, FPa)
	case FormatJsr:
		c.Rb, c.Rc = reg(i.Rb, FPb), reg(i.Rc, FPc)
	case FormatJump:
		c.Rb = reg(i.Rb, FPb)
	}
	switch info.Format {
	case FormatMovi, FormatLoad, FormatStore, FormatCondBranch, FormatBr:
		c.Imm, c.UseImm = i.Imm, true
	}
	return c
}

// canonReg maps r into the FP file when fp is set and into the integer file
// otherwise. Absent and zero registers become that file's zero register.
func canonReg(r Reg, fp bool) Reg {
	switch {
	case r == NoReg || r.IsZero():
		if fp {
			return FZeroReg
		}
		return ZeroReg
	case fp && !r.IsFP():
		return Reg(uint8(r)%NumIntRegs) + NumIntRegs
	case !fp && r.IsFP():
		return Reg(uint8(r) % NumIntRegs)
	case r >= NumRegs:
		return Reg(uint8(r) % NumRegs)
	}
	return r
}
