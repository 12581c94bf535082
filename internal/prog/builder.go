// Package prog provides a type-checked builder for TRISC-64 programs. The
// workload suite uses it to construct the SPECint and MediaBench analog
// benchmarks: it handles label resolution, data-segment layout, and the
// common instruction idioms so benchmark code reads close to assembly while
// staying checked by the compiler.
package prog

import (
	"encoding/binary"
	"fmt"

	"ctcp/internal/isa"
)

// Builder accumulates text and data and resolves labels at Build time.
type Builder struct {
	textBase uint64
	dataBase uint64

	insts  []isa.Inst
	labels map[string]int // label -> instruction index
	fixups []fixup

	data       []byte
	dataSyms   map[string]uint64 // name -> absolute address
	entryLabel string

	nextAuto int
	errs     []error
}

type fixup struct {
	inst  int // index of instruction whose Imm needs the label address
	label string
}

// New returns a Builder using the default segment layout.
func New() *Builder {
	return &Builder{
		textBase: isa.DefaultTextBase,
		dataBase: isa.DefaultDataBase,
		labels:   make(map[string]int),
		dataSyms: make(map[string]uint64),
	}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// emit appends one instruction.
func (b *Builder) emit(i isa.Inst) {
	b.insts = append(b.insts, i)
}

// Label defines name at the current text position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errf("prog: duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.insts)
}

// AutoLabel returns a fresh unique label with the given prefix.
func (b *Builder) AutoLabel(prefix string) string {
	b.nextAuto++
	return fmt.Sprintf(".%s%d", prefix, b.nextAuto)
}

// Entry marks the label where execution begins (default: first instruction).
func (b *Builder) Entry(label string) { b.entryLabel = label }

// --- data segment ---

// Bytes places raw bytes in the data segment under name (name may be empty
// for anonymous data) and returns their absolute address.
func (b *Builder) Bytes(name string, bs []byte) uint64 {
	// Keep every object 8-byte aligned so quad accesses stay natural.
	for len(b.data)%8 != 0 {
		b.data = append(b.data, 0)
	}
	addr := b.dataBase + uint64(len(b.data))
	b.data = append(b.data, bs...)
	if name != "" {
		if _, dup := b.dataSyms[name]; dup {
			b.errf("prog: duplicate data symbol %q", name)
		}
		b.dataSyms[name] = addr
	}
	return addr
}

// Quads places 64-bit little-endian values and returns their address.
func (b *Builder) Quads(name string, vals ...uint64) uint64 {
	bs := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(bs[8*i:], v)
	}
	return b.Bytes(name, bs)
}

// Space reserves n zero bytes and returns their address.
func (b *Builder) Space(name string, n int) uint64 {
	return b.Bytes(name, make([]byte, n))
}

// Patch overwrites previously placed data bytes starting at absolute
// address addr. It is used for pointer-bearing structures (linked lists)
// whose contents depend on their own placement address.
func (b *Builder) Patch(addr uint64, bs []byte) {
	off := int64(addr) - int64(b.dataBase)
	if off < 0 || off+int64(len(bs)) > int64(len(b.data)) {
		b.errf("prog: Patch range [%#x,+%d) outside placed data", addr, len(bs))
		return
	}
	copy(b.data[off:], bs)
}

// DataAddr returns the address of a previously placed data symbol.
func (b *Builder) DataAddr(name string) uint64 {
	addr, ok := b.dataSyms[name]
	if !ok {
		b.errf("prog: unknown data symbol %q", name)
	}
	return addr
}

// --- instruction emitters ---

// Movi materializes a 32-bit signed immediate: rc = imm.
func (b *Builder) Movi(rc isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.MOVI, Rc: rc, Imm: imm, UseImm: true})
}

// MoviAddr materializes the address of a data symbol.
func (b *Builder) MoviAddr(rc isa.Reg, name string) {
	b.Movi(rc, int64(b.DataAddr(name)))
}

// Op3 emits a three-register operate instruction: rc = ra op rb.
func (b *Builder) Op3(op isa.Op, ra, rb, rc isa.Reg) {
	b.emit(isa.Inst{Op: op, Ra: ra, Rb: rb, Rc: rc})
}

// OpI emits an operate instruction with immediate: rc = ra op imm.
func (b *Builder) OpI(op isa.Op, ra isa.Reg, imm int64, rc isa.Reg) {
	b.emit(isa.Inst{Op: op, Ra: ra, Imm: imm, UseImm: true, Rc: rc})
}

// Unary emits a one-source operate (sextb/itof/cvtqt/sqrtt/...): rc = op(ra).
func (b *Builder) Unary(op isa.Op, ra, rc isa.Reg) {
	b.emit(isa.Inst{Op: op, Ra: ra, Rc: rc})
}

// Mov copies ra into rc.
func (b *Builder) Mov(rc, ra isa.Reg) { b.Op3(isa.OR, ra, isa.ZeroReg, rc) }

// Load emits rc = MEM[ra+off] using the given load opcode.
func (b *Builder) Load(op isa.Op, rc, ra isa.Reg, off int64) {
	b.emit(isa.Inst{Op: op, Ra: ra, Rc: rc, Imm: off, UseImm: true})
}

// Store emits MEM[ra+off] = rb using the given store opcode.
func (b *Builder) Store(op isa.Op, rb, ra isa.Reg, off int64) {
	b.emit(isa.Inst{Op: op, Ra: ra, Rb: rb, Imm: off, UseImm: true})
}

// Branch emits a conditional branch on ra to label.
func (b *Builder) Branch(op isa.Op, ra isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.emit(isa.Inst{Op: op, Ra: ra, Imm: 0, UseImm: true})
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.emit(isa.Inst{Op: isa.BR, Rc: isa.ZeroReg, Imm: 0, UseImm: true})
}

// Call emits a linked call to label: materialize target into scratch, JSR.
// The conventional link register RA receives the return address.
func (b *Builder) Call(label string, scratch isa.Reg) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.emit(isa.Inst{Op: isa.MOVI, Rc: scratch, Imm: 0, UseImm: true})
	b.emit(isa.Inst{Op: isa.JSR, Rb: scratch, Rc: isa.RA})
}

// Jsr emits an indirect call through rb, linking into rc.
func (b *Builder) Jsr(rc, rb isa.Reg) { b.emit(isa.Inst{Op: isa.JSR, Rb: rb, Rc: rc}) }

// Jmp emits an indirect jump through rb.
func (b *Builder) Jmp(rb isa.Reg) { b.emit(isa.Inst{Op: isa.JMP, Rb: rb}) }

// Ret returns through the conventional link register.
func (b *Builder) Ret() { b.emit(isa.Inst{Op: isa.RET, Rb: isa.RA}) }

// Out emits the debug/checksum output of ra.
func (b *Builder) Out(ra isa.Reg) { b.emit(isa.Inst{Op: isa.OUT, Ra: ra}) }

// Halt stops the machine.
func (b *Builder) Halt() { b.emit(isa.Inst{Op: isa.HALT}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(isa.Inst{Op: isa.NOP}) }

// LabelAddr returns the absolute address a label will have after Build.
// It may only be called for labels that are already defined.
func (b *Builder) LabelAddr(label string) uint64 {
	idx, ok := b.labels[label]
	if !ok {
		b.errf("prog: LabelAddr of undefined label %q", label)
		return 0
	}
	return b.textBase + uint64(idx)*isa.PCStride
}

// Build resolves all labels and returns the finished program.
func (b *Builder) Build() (*isa.Program, error) {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			b.errf("prog: undefined label %q", f.label)
			continue
		}
		b.insts[f.inst].Imm = int64(b.textBase + uint64(idx)*isa.PCStride)
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	entry := b.textBase
	if b.entryLabel != "" {
		idx, ok := b.labels[b.entryLabel]
		if !ok {
			return nil, fmt.Errorf("prog: undefined entry label %q", b.entryLabel)
		}
		entry = b.textBase + uint64(idx)*isa.PCStride
	}
	syms := make(map[string]uint64, len(b.labels)+len(b.dataSyms))
	for name, idx := range b.labels {
		syms[name] = b.textBase + uint64(idx)*isa.PCStride
	}
	for name, addr := range b.dataSyms {
		syms[name] = addr
	}
	text := make([]isa.Inst, len(b.insts))
	copy(text, b.insts)
	data := make([]byte, len(b.data))
	copy(data, b.data)
	return &isa.Program{
		TextBase: b.textBase,
		Text:     text,
		DataBase: b.dataBase,
		Data:     data,
		Entry:    entry,
		Symbols:  syms,
	}, nil
}
