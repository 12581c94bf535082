// Package emu is the architectural (functional) simulator for TRISC-64. It
// plays the role SimpleScalar's sim-fast plays in the paper: it executes
// programs to architectural completion and streams committed-instruction
// records to the timing model, which replays them through the clustered
// pipeline. The emulator is the single source of truth for program semantics;
// the timing model never re-executes an instruction. That authority is what
// internal/conformance checks: its corpus pins this emulator's architectural
// results as goldens, and its differential fuzzer asserts the timing model
// retires exactly the record stream emitted here (see DESIGN.md §11).
package emu

import (
	"fmt"
	"math"

	"ctcp/internal/isa"
)

// Committed describes one architecturally executed instruction — everything
// the timing model needs: identity, control-flow outcome, and memory address.
type Committed struct {
	Seq    uint64   // 0-based commit sequence number
	PC     uint64   // instruction address
	Inst   isa.Inst // decoded instruction
	NextPC uint64   // address of the next committed instruction
	Taken  bool     // control flow only: branch/jump taken
	// Src and Dest are Inst.Srcs() and Inst.Dest(), the register operands,
	// decoded once per static instruction (see Decode) so that no consumer
	// of the record decodes the instruction word again.
	Src  [2]isa.Reg
	Dest isa.Reg
	EA   uint64 // memory ops only: effective address
	Size uint8  // memory ops only: access size in bytes
}

// Decode sets Src and Dest from Inst. The interpreter's records inherit
// them from the predecoded template; a record built any other way must call
// Decode before it reaches a consumer.
func (c *Committed) Decode() {
	c.Src[0], c.Src[1] = c.Inst.Srcs()
	c.Dest = c.Inst.Dest()
}

// IsTakenControl reports whether the record is a taken control transfer.
//
//ctcp:inline
func (c Committed) IsTakenControl() bool { return c.Inst.IsControl() && c.Taken }

// Stream is a source of committed instructions in program order. NextInto
// writes the next record into *c and returns false when the stream is
// exhausted (program halted or faulted, or an instruction budget was
// reached); on false *c is meaningless. The pipeline pulls one record per
// simulated instruction, so records are written in place through every
// frame of the stream stack rather than copied out by value.
type Stream interface {
	NextInto(c *Committed) bool
}

// Fault is an architectural execution error (bad PC, wild memory access).
type Fault struct {
	PC     uint64
	Reason string
}

func (f *Fault) Error() string { return fmt.Sprintf("emu: fault at pc=%#x: %s", f.PC, f.Reason) }

// Machine is one TRISC-64 hardware context.
type Machine struct {
	// Regs holds the unified register file: integer registers in 0–31, FP
	// registers (as IEEE-754 bit patterns) in 32–63.
	Regs [isa.NumRegs]uint64
	PC   uint64
	Mem  *Memory

	prog   *isa.Program
	halted bool
	seq    uint64
	fault  error

	// pred is the predecoded micro-op table, indexed by (PC-predBase)/
	// PCStride; see predecode.go. Derived state: built once at construction
	// from the immutable program image, kept across Reset, never serialized.
	pred     []uop
	predBase uint64

	// OutHash accumulates every OUT value into an order-sensitive checksum;
	// workloads use it as their self-check.
	OutHash uint64
	// OutValues retains the first few OUT values for debugging.
	OutValues []uint64
}

const maxRetainedOut = 64

// New creates a machine loaded with prog: memory is initialized with the data
// segment, PC is at the entry point, SP at the stack top, and GP at the data
// base.
func New(prog *isa.Program) *Machine {
	m := &Machine{prog: prog}
	m.predecode()
	m.Reset()
	return m
}

// Reset reloads the program image and clears all architectural state.
func (m *Machine) Reset() {
	m.Regs = [isa.NumRegs]uint64{}
	m.Mem = NewMemory()
	m.Mem.WriteBytes(m.prog.DataBase, m.prog.Data)
	m.PC = m.prog.Entry
	if m.PC == 0 {
		m.PC = m.prog.TextBase
	}
	m.Regs[isa.SP] = isa.StackTop
	m.Regs[isa.GP] = m.prog.DataBase
	m.halted = false
	m.seq = 0
	m.fault = nil
	m.OutHash = 0
	m.OutValues = nil
}

// Halted reports whether the program has executed HALT or faulted.
func (m *Machine) Halted() bool { return m.halted }

// Err returns the fault that stopped the machine, or nil for a clean HALT.
func (m *Machine) Err() error { return m.fault }

// InstCount returns the number of committed instructions so far.
func (m *Machine) InstCount() uint64 { return m.seq }

func boolQ(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fpBool(b bool) float64 {
	if b {
		return 2.0 // Alpha convention: true compares write 2.0
	}
	return 0.0
}

// Next executes one instruction and returns its committed record by value.
// ok=false after HALT or a fault.
func (m *Machine) Next() (Committed, bool) {
	var c Committed
	if !m.NextInto(&c) {
		return Committed{}, false
	}
	return c, true
}

// NextInto implements Stream: it executes one instruction and writes its
// committed record into *c. It returns false after HALT or a fault, which
// Err then reports.
//
//ctcp:inline
func (m *Machine) NextInto(c *Committed) bool {
	if !m.halted {
		if m.fault = m.StepInto(c); m.fault == nil {
			return true
		}
		m.halted = true
	}
	return false
}

// Step executes exactly one instruction.
func (m *Machine) Step() (Committed, error) {
	var c Committed
	if err := m.StepInto(&c); err != nil {
		return Committed{}, err
	}
	return c, nil
}

// StepInto executes exactly one instruction, writing its committed record
// into *c. The Committed struct travels from the interpreter through the
// stream stack into the pipeline's fetch buffer once per simulated
// instruction, so this hottest edge is written in place; Step and Next are
// by-value conveniences layered on top. On error *c is partially written
// and must be ignored.
//
// Dispatch runs over the predecoded uop table (predecode.go): one
// bounds-checked index, one template copy, one switch on a dense tag.
// Operand roles, immediates, access sizes, and static control targets were
// all resolved at load time. StepInto is the only interpreter: the shapes
// that can fault statically (undefined opcodes, misaligned direct targets)
// are uFault uops, resolved by faultUop. On a fault PC and the commit count
// are unchanged.
func (m *Machine) StepInto(c *Committed) error {
	if m.halted {
		return &Fault{m.PC, "machine is halted"}
	}
	off := m.PC - m.predBase
	idx := off / isa.PCStride
	if off%isa.PCStride != 0 || idx >= uint64(len(m.pred)) {
		return &Fault{m.PC, "pc outside text segment"}
	}
	u := &m.pred[idx]
	*c = u.tmpl
	c.Seq = m.seq
	next := u.tmpl.NextPC
	r := &m.Regs

	switch u.kind {
	case uNop:

	case uAddRR:
		r[u.rc] = r[u.ra] + r[u.rb]
	case uAddRI:
		r[u.rc] = r[u.ra] + u.imm
	case uSubRR:
		r[u.rc] = r[u.ra] - r[u.rb]
	case uSubRI:
		r[u.rc] = r[u.ra] - u.imm
	case uAndRR:
		r[u.rc] = r[u.ra] & r[u.rb]
	case uAndRI:
		r[u.rc] = r[u.ra] & u.imm
	case uOrRR:
		r[u.rc] = r[u.ra] | r[u.rb]
	case uOrRI:
		r[u.rc] = r[u.ra] | u.imm
	case uXorRR:
		r[u.rc] = r[u.ra] ^ r[u.rb]
	case uXorRI:
		r[u.rc] = r[u.ra] ^ u.imm
	case uAndNotRR:
		r[u.rc] = r[u.ra] &^ r[u.rb]
	case uAndNotRI:
		r[u.rc] = r[u.ra] &^ u.imm
	case uSllRR:
		r[u.rc] = r[u.ra] << (r[u.rb] & 63)
	case uSllRI:
		r[u.rc] = r[u.ra] << u.imm
	case uSrlRR:
		r[u.rc] = r[u.ra] >> (r[u.rb] & 63)
	case uSrlRI:
		r[u.rc] = r[u.ra] >> u.imm
	case uSraRR:
		r[u.rc] = uint64(int64(r[u.ra]) >> (r[u.rb] & 63))
	case uSraRI:
		r[u.rc] = uint64(int64(r[u.ra]) >> u.imm)
	case uCmpEqRR:
		r[u.rc] = boolQ(r[u.ra] == r[u.rb])
	case uCmpEqRI:
		r[u.rc] = boolQ(r[u.ra] == u.imm)
	case uCmpLtRR:
		r[u.rc] = boolQ(int64(r[u.ra]) < int64(r[u.rb]))
	case uCmpLtRI:
		r[u.rc] = boolQ(int64(r[u.ra]) < int64(u.imm))
	case uCmpLeRR:
		r[u.rc] = boolQ(int64(r[u.ra]) <= int64(r[u.rb]))
	case uCmpLeRI:
		r[u.rc] = boolQ(int64(r[u.ra]) <= int64(u.imm))
	case uCmpUltRR:
		r[u.rc] = boolQ(r[u.ra] < r[u.rb])
	case uCmpUltRI:
		r[u.rc] = boolQ(r[u.ra] < u.imm)
	case uCmpUleRR:
		r[u.rc] = boolQ(r[u.ra] <= r[u.rb])
	case uCmpUleRI:
		r[u.rc] = boolQ(r[u.ra] <= u.imm)
	case uMulRR:
		r[u.rc] = r[u.ra] * r[u.rb]
	case uMulRI:
		r[u.rc] = r[u.ra] * u.imm
	case uDivRR, uDivRI:
		d := int64(r[u.rb])
		if u.kind == uDivRI {
			d = int64(u.imm)
		}
		if d == 0 {
			r[u.rc] = 0 // architectural: divide by zero yields zero
		} else {
			r[u.rc] = uint64(int64(r[u.ra]) / d)
		}
	case uRemRR, uRemRI:
		d := int64(r[u.rb])
		if u.kind == uRemRI {
			d = int64(u.imm)
		}
		if d == 0 {
			r[u.rc] = 0
		} else {
			r[u.rc] = uint64(int64(r[u.ra]) % d)
		}
	case uSextB:
		r[u.rc] = uint64(int64(int8(r[u.ra])))
	case uSextW:
		r[u.rc] = uint64(int64(int16(r[u.ra])))
	case uMovi:
		r[u.rc] = u.imm

	case uLd8:
		ea := r[u.ra] + u.imm
		c.EA = ea
		r[u.rc] = m.Mem.Read(ea, 8)
	case uLd4S:
		ea := r[u.ra] + u.imm
		c.EA = ea
		r[u.rc] = uint64(int64(int32(m.Mem.Read(ea, 4))))
	case uLd2:
		ea := r[u.ra] + u.imm
		c.EA = ea
		r[u.rc] = m.Mem.Read(ea, 2)
	case uLd1:
		ea := r[u.ra] + u.imm
		c.EA = ea
		r[u.rc] = m.Mem.Read(ea, 1)
	case uLdDiscard:
		ea := r[u.ra] + u.imm
		c.EA = ea
		_ = m.Mem.Read(ea, int(u.tmpl.Size))

	case uSt8:
		ea := r[u.ra] + u.imm
		c.EA = ea
		m.Mem.Write(ea, r[u.rb], 8)
	case uSt4:
		ea := r[u.ra] + u.imm
		c.EA = ea
		m.Mem.Write(ea, r[u.rb], 4)
	case uSt2:
		ea := r[u.ra] + u.imm
		c.EA = ea
		m.Mem.Write(ea, r[u.rb], 2)
	case uSt1:
		ea := r[u.ra] + u.imm
		c.EA = ea
		m.Mem.Write(ea, r[u.rb], 1)

	case uBeq:
		if int64(r[u.ra]) == 0 {
			c.Taken = true
			next = u.imm
		}
	case uBne:
		if int64(r[u.ra]) != 0 {
			c.Taken = true
			next = u.imm
		}
	case uBlt:
		if int64(r[u.ra]) < 0 {
			c.Taken = true
			next = u.imm
		}
	case uBle:
		if int64(r[u.ra]) <= 0 {
			c.Taken = true
			next = u.imm
		}
	case uBgt:
		if int64(r[u.ra]) > 0 {
			c.Taken = true
			next = u.imm
		}
	case uBge:
		if int64(r[u.ra]) >= 0 {
			c.Taken = true
			next = u.imm
		}
	case uFbeq:
		if math.Float64frombits(r[u.ra]) == 0 {
			c.Taken = true
			next = u.imm
		}
	case uFbne:
		if math.Float64frombits(r[u.ra]) != 0 {
			c.Taken = true
			next = u.imm
		}

	case uBr:
		c.Taken = true
		next = u.imm
	case uBrLink:
		c.Taken = true
		r[u.rc] = u.tmpl.NextPC
		next = u.imm
	case uJsr:
		c.Taken = true
		target := r[u.rb]
		r[u.rc] = u.tmpl.NextPC
		if target%isa.PCStride != 0 {
			return &Fault{m.PC, fmt.Sprintf("misaligned control target %#x", target)}
		}
		next = target
	case uJmp:
		c.Taken = true
		target := r[u.rb]
		if target%isa.PCStride != 0 {
			return &Fault{m.PC, fmt.Sprintf("misaligned control target %#x", target)}
		}
		next = target

	case uAddT:
		r[u.rc] = math.Float64bits(math.Float64frombits(r[u.ra]) + math.Float64frombits(r[u.rb]))
	case uSubT:
		r[u.rc] = math.Float64bits(math.Float64frombits(r[u.ra]) - math.Float64frombits(r[u.rb]))
	case uMulT:
		r[u.rc] = math.Float64bits(math.Float64frombits(r[u.ra]) * math.Float64frombits(r[u.rb]))
	case uDivT:
		r[u.rc] = math.Float64bits(math.Float64frombits(r[u.ra]) / math.Float64frombits(r[u.rb]))
	case uSqrtT:
		r[u.rc] = math.Float64bits(math.Sqrt(math.Float64frombits(r[u.ra])))
	case uCmpTEq:
		r[u.rc] = math.Float64bits(fpBool(math.Float64frombits(r[u.ra]) == math.Float64frombits(r[u.rb])))
	case uCmpTLt:
		r[u.rc] = math.Float64bits(fpBool(math.Float64frombits(r[u.ra]) < math.Float64frombits(r[u.rb])))
	case uCmpTLe:
		r[u.rc] = math.Float64bits(fpBool(math.Float64frombits(r[u.ra]) <= math.Float64frombits(r[u.rb])))
	case uCvtQT:
		r[u.rc] = math.Float64bits(float64(int64(r[u.ra])))
	case uCvtTQ:
		r[u.rc] = uint64(int64(math.Float64frombits(r[u.ra])))
	case uMove:
		r[u.rc] = r[u.ra]

	case uHalt:
		m.halted = true
		next = m.PC
	case uOut:
		v := r[u.ra]
		m.OutHash = m.OutHash*0x100000001b3 + v // FNV-style fold
		if len(m.OutValues) < maxRetainedOut {
			m.OutValues = append(m.OutValues, v)
		}

	case uFault:
		if err := m.faultUop(u); err != nil {
			return err
		}
	}

	c.NextPC = next
	m.PC = next
	m.seq++
	return nil
}

// faultUop executes a uFault uop: an undefined opcode, or direct control
// whose static target is misaligned. It returns the fault, or nil for a
// misaligned conditional branch that is not taken, which commits as a plain
// fall-through. A misaligned BR writes its link register before faulting,
// as a misaligned JSR does.
func (m *Machine) faultUop(u *uop) error {
	inst := u.tmpl.Inst
	v := m.Regs[u.ra]
	var taken bool
	switch inst.Op {
	case isa.BR:
		if realDest(inst) {
			m.Regs[u.rc] = u.tmpl.NextPC
		}
		taken = true
	case isa.BEQ:
		taken = int64(v) == 0
	case isa.BNE:
		taken = int64(v) != 0
	case isa.BLT:
		taken = int64(v) < 0
	case isa.BLE:
		taken = int64(v) <= 0
	case isa.BGT:
		taken = int64(v) > 0
	case isa.BGE:
		taken = int64(v) >= 0
	case isa.FBEQ:
		taken = math.Float64frombits(v) == 0
	case isa.FBNE:
		taken = math.Float64frombits(v) != 0
	default:
		return &Fault{m.PC, fmt.Sprintf("unimplemented opcode %v", inst.Op)}
	}
	if !taken {
		return nil
	}
	return &Fault{m.PC, fmt.Sprintf("misaligned control target %#x", u.imm)}
}

// Run executes until HALT, a fault, or maxInsts committed instructions
// (0 = unlimited). It returns the number of instructions committed.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	start := m.seq
	for !m.halted {
		if maxInsts != 0 && m.seq-start >= maxInsts {
			break
		}
		if _, err := m.Step(); err != nil {
			return m.seq - start, err
		}
	}
	return m.seq - start, nil
}

// LimitStream wraps a Stream with a hard instruction budget.
type LimitStream struct {
	S      Stream
	Budget uint64
	used   uint64
}

// NextInto implements Stream, passing the in-place write through to the
// wrapped stream until the budget is spent.
func (l *LimitStream) NextInto(c *Committed) bool {
	if l.Budget != 0 && l.used >= l.Budget {
		return false
	}
	if !l.S.NextInto(c) {
		return false
	}
	l.used++
	return true
}

// SliceStream replays a fixed slice of committed records; it is used heavily
// in pipeline unit tests.
type SliceStream struct {
	Recs []Committed
	pos  int
}

// NextInto implements Stream. It decodes the record it writes, so a test
// record need only set Inst, not Src and Dest.
func (s *SliceStream) NextInto(c *Committed) bool {
	if s.pos >= len(s.Recs) {
		return false
	}
	*c = s.Recs[s.pos]
	c.Decode()
	s.pos++
	return true
}
