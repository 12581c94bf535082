package isa

import "sort"

// Default segment bases. Text is low, data sits above it, and the stack grows
// down from StackTop. Nothing in the simulator depends on these exact values;
// they are conventions shared by the assembler, builder, and emulator.
const (
	DefaultTextBase uint64 = 0x0000_1000
	DefaultDataBase uint64 = 0x0010_0000
	DefaultHeapBase uint64 = 0x0100_0000
	StackTop        uint64 = 0x7FFF_F000
)

// Program is a TRISC-64 image: a text segment of instructions, an initialized
// data segment, an entry point, and an optional symbol table for diagnostics.
type Program struct {
	TextBase uint64
	Text     []Inst
	DataBase uint64
	Data     []byte
	Entry    uint64
	Symbols  map[string]uint64
}

// InstAt returns the instruction at address pc, or ok=false if pc lies
// outside the text segment or is misaligned.
func (p *Program) InstAt(pc uint64) (Inst, bool) {
	if pc < p.TextBase || (pc-p.TextBase)%PCStride != 0 {
		return Inst{}, false
	}
	idx := (pc - p.TextBase) / PCStride
	if idx >= uint64(len(p.Text)) {
		return Inst{}, false
	}
	return p.Text[idx], true
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 {
	return p.TextBase + uint64(len(p.Text))*PCStride
}

// SymbolFor returns the name of the symbol at addr, if any.
func (p *Program) SymbolFor(addr uint64) (string, bool) {
	for name, a := range p.Symbols {
		if a == addr {
			return name, true
		}
	}
	return "", false
}

// SortedSymbols returns symbol names ordered by address (then name), which
// keeps disassembly listings deterministic.
func (p *Program) SortedSymbols() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ai, aj := p.Symbols[names[i]], p.Symbols[names[j]]
		if ai != aj {
			return ai < aj
		}
		return names[i] < names[j]
	})
	return names
}
