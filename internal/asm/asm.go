// Package asm implements a two-pass assembler for TRISC-64 text assembly.
//
// Syntax overview (semicolon or # starts a comment):
//
//	        .text                 ; switch to text segment (default)
//	        .entry  main          ; set the program entry point
//	main:   movi    r1, 100
//	loop:   sub     r1, 1, r1     ; dest is always the last operand
//	        bne     r1, loop
//	        ldq     r2, 8(r3)     ; load:  rc, disp(ra)
//	        stq     r2, 8(r3)     ; store: rb, disp(ra)
//	        jsr     ra, (r4)      ; indirect call, link register first
//	        ret                   ; return via ra
//	        halt
//	        .data
//	tbl:    .quad   1, 2, 3       ; 64-bit values
//	        .long   7             ; 32-bit
//	        .word   7             ; 16-bit
//	        .byte   1, 2          ; 8-bit
//	msg:    .ascii  "hi"          ; raw bytes
//	buf:    .space  64            ; zero-filled
//	        .align  8
//
// Immediate operands accept decimal, 0x hex, character literals ('a'), and
// symbol references (optionally symbol+offset / symbol-offset). Registers are
// r0–r31 and f0–f31 with aliases zero, ra, sp, gp.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"ctcp/internal/isa"
)

// Error describes an assembly failure at a specific source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble translates source text into a loadable program.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{
		symbols:  make(map[string]uint64),
		textBase: isa.DefaultTextBase,
		dataBase: isa.DefaultDataBase,
	}
	// Pass 1: sizes and symbol addresses. Pass 2: encoding.
	if err := a.pass(src, 1); err != nil {
		return nil, err
	}
	if err := a.pass(src, 2); err != nil {
		return nil, err
	}
	entry := a.textBase
	if a.entryName != "" {
		addr, ok := a.symbols[a.entryName]
		if !ok {
			return nil, &Error{a.entryLine, fmt.Sprintf("undefined entry symbol %q", a.entryName)}
		}
		entry = addr
	}
	return &isa.Program{
		TextBase: a.textBase,
		Text:     a.text,
		DataBase: a.dataBase,
		Data:     a.data,
		Entry:    entry,
		Symbols:  a.symbols,
	}, nil
}

type assembler struct {
	textBase, dataBase uint64
	symbols            map[string]uint64
	entryName          string
	entryLine          int

	// pass state
	pass2   bool
	inData  bool
	textLen int // instructions
	dataLen int // bytes
	text    []isa.Inst
	data    []byte
}

func (a *assembler) pass(src string, n int) error {
	a.pass2 = n == 2
	a.inData = false
	a.textLen = 0
	a.dataLen = 0
	if a.pass2 {
		a.text = a.text[:0]
		a.data = a.data[:0]
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		// Peel off any labels ("name:") at the start of the line.
		for {
			trimmed := strings.TrimSpace(line)
			idx := strings.Index(trimmed, ":")
			if idx <= 0 || !isIdent(trimmed[:idx]) {
				line = trimmed
				break
			}
			if !a.pass2 {
				name := trimmed[:idx]
				if _, dup := a.symbols[name]; dup {
					return &Error{lineNo + 1, fmt.Sprintf("duplicate symbol %q", name)}
				}
				a.symbols[name] = a.here()
			}
			line = trimmed[idx+1:]
		}
		if line == "" {
			continue
		}
		if err := a.statement(line, lineNo+1); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) here() uint64 {
	if a.inData {
		return a.dataBase + uint64(a.dataLen)
	}
	return a.textBase + uint64(a.textLen)*isa.PCStride
}

func stripComment(s string) string {
	// Respect quotes so ".ascii "a;b"" works.
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case ';', '#':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.':
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) statement(line string, lineNo int) error {
	fields := strings.SplitN(line, " ", 2)
	mnemonic := strings.ToLower(strings.TrimSpace(strings.SplitN(fields[0], "\t", 2)[0]))
	rest := ""
	if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		rest = strings.TrimSpace(line[sp:])
	}
	if strings.HasPrefix(mnemonic, ".") {
		return a.directive(mnemonic, rest, lineNo)
	}
	if a.inData {
		return &Error{lineNo, "instruction in data segment"}
	}
	return a.instruction(mnemonic, rest, lineNo)
}

func (a *assembler) directive(name, args string, lineNo int) error {
	switch name {
	case ".text":
		a.inData = false
	case ".data":
		a.inData = true
	case ".entry":
		a.entryName = strings.TrimSpace(args)
		a.entryLine = lineNo
	case ".quad", ".long", ".word", ".byte":
		if !a.inData {
			return &Error{lineNo, name + " outside .data"}
		}
		size := map[string]int{".quad": 8, ".long": 4, ".word": 2, ".byte": 1}[name]
		for _, f := range splitOperands(args) {
			v, err := a.immediate(f, lineNo)
			if err != nil {
				return err
			}
			if a.pass2 {
				for i := 0; i < size; i++ {
					a.data = append(a.data, byte(v))
					v >>= 8
				}
			}
			a.dataLen += size
		}
	case ".ascii", ".asciiz":
		if !a.inData {
			return &Error{lineNo, name + " outside .data"}
		}
		s, err := strconv.Unquote(strings.TrimSpace(args))
		if err != nil {
			return &Error{lineNo, "bad string literal: " + err.Error()}
		}
		if name == ".asciiz" {
			s += "\x00"
		}
		if a.pass2 {
			a.data = append(a.data, s...)
		}
		a.dataLen += len(s)
	case ".space":
		if !a.inData {
			return &Error{lineNo, ".space outside .data"}
		}
		n, err := a.immediate(args, lineNo)
		if err != nil {
			return err
		}
		if n < 0 || n > 1<<28 {
			return &Error{lineNo, "unreasonable .space size"}
		}
		if a.pass2 {
			a.data = append(a.data, make([]byte, n)...)
		}
		a.dataLen += int(n)
	case ".align":
		n, err := a.immediate(args, lineNo)
		if err != nil {
			return err
		}
		if n <= 0 || n&(n-1) != 0 {
			return &Error{lineNo, ".align requires a power of two"}
		}
		if a.inData {
			for uint64(a.dataLen)%uint64(n) != 0 {
				if a.pass2 {
					a.data = append(a.data, 0)
				}
				a.dataLen++
			}
		}
	default:
		return &Error{lineNo, fmt.Sprintf("unknown directive %q", name)}
	}
	return nil
}

func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out
}

var regAliases = map[string]isa.Reg{
	"zero": isa.ZeroReg, "fzero": isa.FZeroReg,
	"ra": isa.RA, "sp": isa.SP, "gp": isa.GP,
}

func parseReg(s string) (isa.Reg, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	if r, ok := regAliases[s]; ok {
		return r, true
	}
	if len(s) < 2 {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, false
	}
	switch s[0] {
	case 'r':
		return isa.R(n), true
	case 'f':
		return isa.F(n), true
	}
	return 0, false
}

// reg parses a register operand.
func reg(s string, lineNo int) (isa.Reg, error) {
	r, ok := parseReg(s)
	if !ok {
		return 0, &Error{lineNo, fmt.Sprintf("bad register %q", s)}
	}
	return r, nil
}

// immediate evaluates a numeric/symbolic operand. During pass 1 undefined
// symbols evaluate to zero (their sizes do not depend on values); pass 2
// requires every symbol to be defined.
func (a *assembler) immediate(s string, lineNo int) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, &Error{lineNo, "missing operand"}
	}
	// Character literal.
	if len(s) >= 3 && s[0] == '\'' {
		u, err := strconv.Unquote(s)
		if err != nil || len(u) != 1 {
			return 0, &Error{lineNo, "bad character literal " + s}
		}
		return int64(u[0]), nil
	}
	// symbol+off / symbol-off (but keep a leading '-' as part of a number).
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			base, err := a.immediate(s[:i], lineNo)
			if err != nil {
				return 0, err
			}
			off, err := a.immediate(s[i+1:], lineNo)
			if err != nil {
				return 0, err
			}
			if s[i] == '-' {
				return base - off, nil
			}
			return base + off, nil
		}
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	if addr, ok := a.symbols[s]; ok {
		return int64(addr), nil
	}
	if !a.pass2 && isIdent(s) {
		return 0, nil // forward reference, resolved in pass 2
	}
	return 0, &Error{lineNo, fmt.Sprintf("undefined symbol or bad immediate %q", s)}
}

// parseMem parses "disp(reg)" or "(reg)".
func (a *assembler) parseMem(s string, lineNo int) (isa.Reg, int64, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, &Error{lineNo, fmt.Sprintf("bad memory operand %q", s)}
	}
	reg, ok := parseReg(s[open+1 : len(s)-1])
	if !ok {
		return 0, 0, &Error{lineNo, fmt.Sprintf("bad base register in %q", s)}
	}
	disp := int64(0)
	if open > 0 {
		var err error
		disp, err = a.immediate(s[:open], lineNo)
		if err != nil {
			return 0, 0, err
		}
	}
	return reg, disp, nil
}

func (a *assembler) emit(i isa.Inst) {
	if a.pass2 {
		a.text = append(a.text, i.Canon())
	}
	a.textLen++
}

// syntax lists each format's operands in source order, named by their
// assembly syntax.
var syntax = [...][]string{
	isa.FormatNone:       nil,
	isa.FormatOut:        {"ra"},
	isa.FormatOperate:    {"ra", "rb|imm", "rc"},
	isa.FormatUnary:      {"ra", "rc"},
	isa.FormatMovi:       {"rc", "imm"},
	isa.FormatLoad:       {"rc", "disp(ra)"},
	isa.FormatStore:      {"rb", "disp(ra)"},
	isa.FormatCondBranch: {"ra", "target"},
	isa.FormatBr:         {"rc", "target"},
	isa.FormatJsr:        {"rc", "(rb)"},
	isa.FormatJump:       {"(rb)"},
}

func (a *assembler) instruction(mnemonic, args string, lineNo int) error {
	ops := splitOperands(args)
	if mnemonic == "mov" { // mov rc, ra is or ra, zero, rc
		if len(ops) != 2 {
			return &Error{lineNo, "usage: mov rc, ra"}
		}
		mnemonic, ops = "or", []string{ops[1], "zero", ops[0]}
	}
	op, ok := isa.OpByName(mnemonic)
	if !ok {
		return &Error{lineNo, fmt.Sprintf("unknown mnemonic %q", mnemonic)}
	}
	// br's link register and ret's (rb) may be left out.
	switch {
	case op == isa.BR && len(ops) == 1:
		ops = []string{"zero", ops[0]}
	case op == isa.RET && len(ops) == 0:
		ops = []string{"(ra)"}
	}
	want := syntax[op.Info().Format]
	if len(ops) != len(want) {
		return &Error{lineNo, "usage: " + strings.TrimSpace(mnemonic+" "+strings.Join(want, ", "))}
	}
	in := isa.Inst{Op: op}
	for k, s := range ops {
		var err error
		switch want[k] {
		case "ra":
			in.Ra, err = reg(s, lineNo)
		case "rb":
			in.Rb, err = reg(s, lineNo)
		case "rc":
			in.Rc, err = reg(s, lineNo)
		case "rb|imm":
			if in.Rb, ok = parseReg(s); !ok {
				in.Imm, err = a.immediate(s, lineNo)
				in.UseImm = true
			}
		case "imm", "target":
			in.Imm, err = a.immediate(s, lineNo)
		case "disp(ra)":
			in.Ra, in.Imm, err = a.parseMem(s, lineNo)
		case "(rb)": // a displacement is evaluated and ignored
			in.Rb, _, err = a.parseMem(s, lineNo)
		}
		if err != nil {
			return err
		}
	}
	a.emit(in)
	return nil
}

// Disassemble renders a program listing with addresses and symbols.
func Disassemble(p *isa.Program) string {
	var sb strings.Builder
	addrSym := make(map[uint64]string)
	for _, name := range p.SortedSymbols() {
		addrSym[p.Symbols[name]] = name
	}
	for i, inst := range p.Text {
		addr := p.TextBase + uint64(i)*isa.PCStride
		if name, ok := addrSym[addr]; ok {
			fmt.Fprintf(&sb, "%s:\n", name)
		}
		fmt.Fprintf(&sb, "  %#08x  %s\n", addr, inst)
	}
	return sb.String()
}
