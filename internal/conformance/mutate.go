package conformance

import (
	"errors"
	"fmt"

	"ctcp/internal/isa"
)

// The mutator derives program variants for the differential fuzzer. Every
// mutation is semantics-changing but structure-preserving: the mutant is a
// well-formed program whose meaning is whatever the emulator says it is, so
// emulator-vs-pipeline agreement is still exactly checkable. Mutations are
// chosen by a deterministic seed-driven PRNG — the same (program, seed) pair
// always yields the same mutant, which is what lets a fuzz finding be
// replayed and minimized.

// MutKind enumerates mutation kinds.
type MutKind uint8

const (
	// MutOpSub substitutes the opcode at index A with Op, staying inside
	// the same operand-format class group (add<->xor, ldq<->ldw, beq<->bgt,
	// ...), so operand roles remain valid.
	MutOpSub MutKind = iota
	// MutSwapOperands swaps Ra and Rb of the binary register-form operate
	// instruction at index A.
	MutSwapOperands
	// MutBlockSwap exchanges the adjacent basic blocks [A,B) and [B,C) and
	// remaps every direct control target into the moved range.
	MutBlockSwap
)

// Mutation is one applied program edit, replayable via Apply.
type Mutation struct {
	Kind    MutKind
	A, B, C int
	Op      isa.Op
}

// String renders the mutation for repro headers and failure messages.
func (m Mutation) String() string {
	switch m.Kind {
	case MutOpSub:
		return fmt.Sprintf("opsub@%d->%v", m.A, m.Op)
	case MutSwapOperands:
		return fmt.Sprintf("swapops@%d", m.A)
	case MutBlockSwap:
		return fmt.Sprintf("blockswap[%d,%d)x[%d,%d)", m.A, m.B, m.B, m.C)
	default:
		return fmt.Sprintf("mut?%d", m.Kind)
	}
}

// prng is splitmix64: tiny, deterministic, and seedable from a fuzz
// argument. The fuzzer must not consult ambient randomness — reproducibility
// of a finding depends on (source, seed) alone.
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(p.next() % uint64(n))
}

// opGroups are the substitution classes: same operand format, same
// functional-unit class family, so a substituted instruction is always
// well-formed and stays on the same reservation-station path.
var opGroups = [][]isa.Op{
	{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.ANDNOT},
	{isa.SLL, isa.SRL, isa.SRA},
	{isa.CMPEQ, isa.CMPLT, isa.CMPLE, isa.CMPULT, isa.CMPULE},
	{isa.SEXTB, isa.SEXTW},
	{isa.DIV, isa.REM},
	{isa.LDQ, isa.LDL, isa.LDW, isa.LDBU},
	{isa.STQ, isa.STL, isa.STW, isa.STB},
	{isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE},
	{isa.ADDT, isa.SUBT},
	{isa.CMPTEQ, isa.CMPTLT, isa.CMPTLE},
	{isa.FBEQ, isa.FBNE},
}

var opGroup = func() map[isa.Op][]isa.Op {
	m := make(map[isa.Op][]isa.Op)
	for _, g := range opGroups {
		for _, op := range g {
			m[op] = g
		}
	}
	return m
}()

// Mutations derives a deterministic list of up to four mutations for prog
// from seed. The list may be empty (seed hit no applicable sites); the
// fuzzer then exercises the unmutated program, which is still a valid
// differential check.
func Mutations(prog *isa.Program, seed uint64) []Mutation {
	r := &prng{s: seed}
	n := 1 + r.intn(4)
	muts := make([]Mutation, 0, n)
	haveBlockSwap := false
	for i := 0; i < n; i++ {
		switch r.intn(3) {
		case 0:
			if m, ok := pickOpSub(prog, r); ok {
				muts = append(muts, m)
			}
		case 1:
			if m, ok := pickSwapOperands(prog, r); ok {
				muts = append(muts, m)
			}
		case 2:
			// At most one block swap: its indices are computed against the
			// original layout and a second swap over moved blocks would
			// scramble targets (a deterministic but near-useless mutant).
			if haveBlockSwap {
				continue
			}
			if m, ok := pickBlockSwap(prog, r); ok {
				muts = append(muts, m)
				haveBlockSwap = true
			}
		}
	}
	return muts
}

func pickOpSub(prog *isa.Program, r *prng) (Mutation, bool) {
	// One bounded scan from a random start, so site choice is O(n) and
	// deterministic.
	n := len(prog.Text)
	start := r.intn(n)
	for off := 0; off < n; off++ {
		i := (start + off) % n
		g, ok := opGroup[prog.Text[i].Op]
		if !ok {
			continue
		}
		alt := g[r.intn(len(g))]
		if alt == prog.Text[i].Op {
			alt = g[(indexOf(g, alt)+1)%len(g)]
		}
		return Mutation{Kind: MutOpSub, A: i, Op: alt}, true
	}
	return Mutation{}, false
}

func indexOf(g []isa.Op, op isa.Op) int {
	for i, o := range g {
		if o == op {
			return i
		}
	}
	return 0
}

func pickSwapOperands(prog *isa.Program, r *prng) (Mutation, bool) {
	n := len(prog.Text)
	start := r.intn(n)
	for off := 0; off < n; off++ {
		i := (start + off) % n
		in := prog.Text[i]
		if in.Op.Info().Format != isa.FormatOperate || in.UseImm || in.Ra == in.Rb {
			continue
		}
		return Mutation{Kind: MutSwapOperands, A: i}, true
	}
	return Mutation{}, false
}

// pickBlockSwap finds two adjacent movable basic blocks. A block is movable
// when it ends in an unconditional direct branch or HALT (no fall-through
// out) and the instruction before it cannot fall into it either, so the
// swap only changes code placement, with direct targets fixed up by Apply.
// Programs with register-indirect control or text addresses materialized as
// immediates are skipped entirely: indirect targets cannot be remapped.
func pickBlockSwap(prog *isa.Program, r *prng) (Mutation, bool) {
	text := prog.Text
	lo, hi := prog.TextBase, prog.TextEnd()
	for _, in := range text {
		if in.Op.Class() == isa.ClassJump {
			return Mutation{}, false
		}
		if in.UseImm && !in.IsControl() && uint64(in.Imm) >= lo && uint64(in.Imm) < hi {
			return Mutation{}, false
		}
	}
	// Block starts: instruction 0, every direct-control target, and every
	// successor of a control instruction.
	isStart := make([]bool, len(text)+1)
	isStart[0] = true
	isStart[len(text)] = true
	for i, in := range text {
		if in.IsControl() || in.Op == isa.HALT {
			isStart[i+1] = true
		}
		if in.IsControl() && in.UseImm {
			t := uint64(in.Imm)
			if t >= lo && t < hi {
				isStart[(t-lo)/isa.PCStride] = true
			}
		}
	}
	starts := make([]int, 0, len(text)/2)
	for i := range isStart {
		if isStart[i] {
			starts = append(starts, i)
		}
	}
	// noFallOut reports that the block ending at e-1 never falls through.
	noFallOut := func(e int) bool {
		in := text[e-1]
		return in.Op == isa.HALT || (in.Op == isa.BR && in.UseImm)
	}
	// Candidate pairs: consecutive blocks [A,B) and [B,C), both sealed, with
	// the predecessor of A also sealed (and A not the first block, so the
	// entry block never moves).
	type pair struct{ a, b, c int }
	cands := make([]pair, 0, 8)
	for i := 1; i+2 < len(starts); i++ {
		a, b, c := starts[i], starts[i+1], starts[i+2]
		if noFallOut(a) && noFallOut(b) && noFallOut(c) {
			cands = append(cands, pair{a, b, c})
		}
	}
	if len(cands) == 0 {
		return Mutation{}, false
	}
	p := cands[r.intn(len(cands))]
	return Mutation{Kind: MutBlockSwap, A: p.a, B: p.b, C: p.c}, true
}

// Apply replays muts against prog and returns the mutated program. The
// original is not modified; the result has no symbol table (symbols would be
// stale after block moves).
func Apply(prog *isa.Program, muts []Mutation) *isa.Program {
	text := make([]isa.Inst, len(prog.Text))
	copy(text, prog.Text)
	data := make([]byte, len(prog.Data))
	copy(data, prog.Data)
	out := &isa.Program{
		TextBase: prog.TextBase,
		Text:     text,
		DataBase: prog.DataBase,
		Data:     data,
		Entry:    prog.Entry,
	}
	for _, m := range muts {
		applyOne(out, m)
	}
	return out
}

func applyOne(p *isa.Program, m Mutation) {
	n := len(p.Text)
	switch m.Kind {
	case MutOpSub:
		if m.A < n {
			p.Text[m.A].Op = m.Op
		}
	case MutSwapOperands:
		if m.A < n {
			in := &p.Text[m.A]
			in.Ra, in.Rb = in.Rb, in.Ra
		}
	case MutBlockSwap:
		if !(0 < m.A && m.A < m.B && m.B < m.C && m.C <= n) {
			return
		}
		// New layout: [0,A) [B,C) [A,B) [C,n).
		swapped := make([]isa.Inst, 0, n)
		swapped = append(swapped, p.Text[:m.A]...)
		swapped = append(swapped, p.Text[m.B:m.C]...)
		swapped = append(swapped, p.Text[m.A:m.B]...)
		swapped = append(swapped, p.Text[m.C:]...)
		remap := func(idx int) int {
			switch {
			case idx >= m.A && idx < m.B:
				return idx + (m.C - m.B)
			case idx >= m.B && idx < m.C:
				return idx - (m.B - m.A)
			default:
				return idx
			}
		}
		lo, hi := p.TextBase, p.TextBase+uint64(n)*isa.PCStride
		for i := range swapped {
			in := &swapped[i]
			if !in.IsControl() || !in.UseImm {
				continue
			}
			t := uint64(in.Imm)
			if t < lo || t >= hi {
				continue
			}
			idx := int((t - lo) / isa.PCStride)
			in.Imm = int64(lo + uint64(remap(idx))*isa.PCStride)
		}
		copy(p.Text, swapped)
		// The entry never moves (A > 0 and the entry block is block 0 when
		// Entry == TextBase), but remap it anyway for programs whose entry
		// sits mid-text.
		if p.Entry >= lo && p.Entry < hi {
			p.Entry = lo + uint64(remap(int((p.Entry-lo)/isa.PCStride)))*isa.PCStride
		}
	}
}

// Minimize shrinks a diverging mutation list: it repeatedly tries dropping
// each mutation and keeps any subset that still diverges under check, until
// no single removal preserves the divergence. check must return a non-nil,
// non-ErrReject error for a diverging mutant.
func Minimize(prog *isa.Program, muts []Mutation, check func(*isa.Program) error) []Mutation {
	diverges := func(ms []Mutation) bool {
		err := check(Apply(prog, ms))
		return err != nil && !isReject(err)
	}
	cur := append([]Mutation(nil), muts...)
	for changed := true; changed && len(cur) > 0; {
		changed = false
		for i := 0; i < len(cur); i++ {
			trial := make([]Mutation, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			if diverges(trial) {
				cur = trial
				changed = true
				break
			}
		}
	}
	return cur
}

func isReject(err error) bool { return errors.Is(err, ErrReject) }
