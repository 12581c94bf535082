package emu

import (
	"fmt"
	"math"

	"ctcp/internal/isa"
)

// refStep is the reference interpreter: the original switch-on-opcode
// implementation, kept out of the production build. It decodes from the
// program text instead of the uop table, re-derives operand kinds on every
// step, and keeps its own copy of every opcode's semantics, so the lockstep
// tests (predecode_test.go) cross-check StepInto against an independent
// implementation, fault shapes included.
func (m *Machine) refStep(c *Committed) error {
	if m.halted {
		return &Fault{m.PC, "machine is halted"}
	}
	off := m.PC - m.prog.TextBase
	if m.PC < m.prog.TextBase || off%isa.PCStride != 0 || off/isa.PCStride >= uint64(len(m.prog.Text)) {
		return &Fault{m.PC, "pc outside text segment"}
	}
	inst := m.prog.Text[off/isa.PCStride]
	*c = Committed{Seq: m.seq, PC: m.PC, Inst: inst, Dest: inst.Dest()}
	c.Src[0], c.Src[1] = inst.Srcs()
	next := m.PC + isa.PCStride

	opB := func() uint64 { // second integer operand: register or immediate
		if inst.UseImm {
			return uint64(inst.Imm)
		}
		return m.get(inst.Rb)
	}

	switch inst.Op {
	case isa.NOP:
	case isa.ADD:
		m.set(inst.Rc, m.get(inst.Ra)+opB())
	case isa.SUB:
		m.set(inst.Rc, m.get(inst.Ra)-opB())
	case isa.AND:
		m.set(inst.Rc, m.get(inst.Ra)&opB())
	case isa.OR:
		m.set(inst.Rc, m.get(inst.Ra)|opB())
	case isa.XOR:
		m.set(inst.Rc, m.get(inst.Ra)^opB())
	case isa.ANDNOT:
		m.set(inst.Rc, m.get(inst.Ra)&^opB())
	case isa.SLL:
		m.set(inst.Rc, m.get(inst.Ra)<<(opB()&63))
	case isa.SRL:
		m.set(inst.Rc, m.get(inst.Ra)>>(opB()&63))
	case isa.SRA:
		m.set(inst.Rc, uint64(int64(m.get(inst.Ra))>>(opB()&63)))
	case isa.CMPEQ:
		m.set(inst.Rc, boolQ(m.get(inst.Ra) == opB()))
	case isa.CMPLT:
		m.set(inst.Rc, boolQ(int64(m.get(inst.Ra)) < int64(opB())))
	case isa.CMPLE:
		m.set(inst.Rc, boolQ(int64(m.get(inst.Ra)) <= int64(opB())))
	case isa.CMPULT:
		m.set(inst.Rc, boolQ(m.get(inst.Ra) < opB()))
	case isa.CMPULE:
		m.set(inst.Rc, boolQ(m.get(inst.Ra) <= opB()))
	case isa.SEXTB:
		m.set(inst.Rc, uint64(int64(int8(m.get(inst.Ra)))))
	case isa.SEXTW:
		m.set(inst.Rc, uint64(int64(int16(m.get(inst.Ra)))))
	case isa.MOVI:
		m.set(inst.Rc, uint64(inst.Imm))
	case isa.MUL:
		m.set(inst.Rc, m.get(inst.Ra)*opB())
	case isa.DIV:
		d := int64(opB())
		if d == 0 {
			m.set(inst.Rc, 0) // architectural: divide by zero yields zero
		} else {
			m.set(inst.Rc, uint64(int64(m.get(inst.Ra))/d))
		}
	case isa.REM:
		d := int64(opB())
		if d == 0 {
			m.set(inst.Rc, 0)
		} else {
			m.set(inst.Rc, uint64(int64(m.get(inst.Ra))%d))
		}

	case isa.LDQ, isa.LDL, isa.LDW, isa.LDBU, isa.LDT:
		ea := m.get(inst.Ra) + uint64(inst.Imm)
		c.EA = ea
		switch inst.Op {
		case isa.LDQ, isa.LDT:
			c.Size = 8
			m.set(inst.Rc, m.Mem.Read(ea, 8))
		case isa.LDL:
			c.Size = 4
			m.set(inst.Rc, uint64(int64(int32(m.Mem.Read(ea, 4)))))
		case isa.LDW:
			c.Size = 2
			m.set(inst.Rc, m.Mem.Read(ea, 2))
		case isa.LDBU:
			c.Size = 1
			m.set(inst.Rc, m.Mem.Read(ea, 1))
		}
	case isa.STQ, isa.STL, isa.STW, isa.STB, isa.STT:
		ea := m.get(inst.Ra) + uint64(inst.Imm)
		c.EA = ea
		v := m.get(inst.Rb)
		switch inst.Op {
		case isa.STQ, isa.STT:
			c.Size = 8
			m.Mem.Write(ea, v, 8)
		case isa.STL:
			c.Size = 4
			m.Mem.Write(ea, v, 4)
		case isa.STW:
			c.Size = 2
			m.Mem.Write(ea, v, 2)
		case isa.STB:
			c.Size = 1
			m.Mem.Write(ea, v, 1)
		}

	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
		v := int64(m.get(inst.Ra))
		var taken bool
		switch inst.Op {
		case isa.BEQ:
			taken = v == 0
		case isa.BNE:
			taken = v != 0
		case isa.BLT:
			taken = v < 0
		case isa.BLE:
			taken = v <= 0
		case isa.BGT:
			taken = v > 0
		case isa.BGE:
			taken = v >= 0
		}
		c.Taken = taken
		if taken {
			next = uint64(inst.Imm)
		}
	case isa.FBEQ, isa.FBNE:
		v := m.getF(inst.Ra)
		taken := v == 0
		if inst.Op == isa.FBNE {
			taken = !taken
		}
		c.Taken = taken
		if taken {
			next = uint64(inst.Imm)
		}
	case isa.BR:
		c.Taken = true
		m.set(inst.Rc, m.PC+isa.PCStride)
		next = uint64(inst.Imm)
	case isa.JSR:
		c.Taken = true
		target := m.get(inst.Rb)
		m.set(inst.Rc, m.PC+isa.PCStride)
		next = target
	case isa.JMP, isa.RET:
		c.Taken = true
		next = m.get(inst.Rb)

	case isa.ADDT:
		m.setF(inst.Rc, m.getF(inst.Ra)+m.getF(inst.Rb))
	case isa.SUBT:
		m.setF(inst.Rc, m.getF(inst.Ra)-m.getF(inst.Rb))
	case isa.MULT:
		m.setF(inst.Rc, m.getF(inst.Ra)*m.getF(inst.Rb))
	case isa.DIVT:
		m.setF(inst.Rc, m.getF(inst.Ra)/m.getF(inst.Rb))
	case isa.SQRTT:
		m.setF(inst.Rc, math.Sqrt(m.getF(inst.Ra)))
	case isa.CMPTEQ:
		m.setF(inst.Rc, fpBool(m.getF(inst.Ra) == m.getF(inst.Rb)))
	case isa.CMPTLT:
		m.setF(inst.Rc, fpBool(m.getF(inst.Ra) < m.getF(inst.Rb)))
	case isa.CMPTLE:
		m.setF(inst.Rc, fpBool(m.getF(inst.Ra) <= m.getF(inst.Rb)))
	case isa.CVTQT:
		m.setF(inst.Rc, float64(int64(m.get(inst.Ra))))
	case isa.CVTTQ:
		m.set(inst.Rc, uint64(int64(m.getF(inst.Ra))))
	case isa.ITOF:
		m.set(inst.Rc, m.get(inst.Ra)) // bit move into FP space
	case isa.FTOI:
		m.set(inst.Rc, m.get(inst.Ra)) // bit move out of FP space

	case isa.HALT:
		m.halted = true
		next = m.PC
	case isa.OUT:
		v := m.get(inst.Ra)
		m.OutHash = m.OutHash*0x100000001b3 + v // FNV-style fold
		if len(m.OutValues) < maxRetainedOut {
			m.OutValues = append(m.OutValues, v)
		}

	default:
		return &Fault{m.PC, fmt.Sprintf("unimplemented opcode %v", inst.Op)}
	}

	if next%isa.PCStride != 0 {
		return &Fault{m.PC, fmt.Sprintf("misaligned control target %#x", next)}
	}
	c.NextPC = next
	m.PC = next
	m.seq++
	return nil
}

func (m *Machine) get(r isa.Reg) uint64 {
	if r.IsZero() || r == isa.NoReg {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) getF(r isa.Reg) float64 { return math.Float64frombits(m.get(r)) }

func (m *Machine) set(r isa.Reg, v uint64) {
	if r.IsZero() || r == isa.NoReg {
		return
	}
	m.Regs[r] = v
}

func (m *Machine) setF(r isa.Reg, v float64) { m.set(r, math.Float64bits(v)) }
