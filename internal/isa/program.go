package isa

import "sort"

// Default segment bases. Text is low, data sits above it, and the stack grows
// down from StackTop. Nothing in the simulator depends on these exact values;
// they are conventions shared by the assembler, builder, and emulator.
const (
	DefaultTextBase uint64 = 0x0000_1000
	DefaultDataBase uint64 = 0x0010_0000
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

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 {
	return p.TextBase + uint64(len(p.Text))*PCStride
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
