// Package conformance is the machine-checked contract that the functional
// emulator and the cycle-level timing model agree on every program, not just
// the curated benchmark kernels.
//
// The contract has two halves:
//
//   - Architectural conformance: every program in testdata/conformance/ is
//     self-checking (it computes values, OUTs a checksum, and HALTs) and has
//     a golden architectural result (final register file, OUT checksum,
//     memory checksum) committed in golden.json. The emulator must reproduce
//     the golden result exactly.
//
//   - Differential agreement: the timing model consumes the emulator's
//     committed stream and must retire byte-identical records in program
//     order (observed through pipeline.Config.RetireHook), leaving the
//     machine in the same architectural state, under every assignment
//     strategy. FuzzDifferential extends this check from the curated corpus
//     to mutated variants of it.
//
// The package is used by its own tests and by the differential fuzzer; the
// exported API (LoadCorpus, RunRef, RunPipeline, Diff, Mutations/Apply,
// WriteSource) is what a future user-submitted-program intake would reuse to
// validate untrusted programs before simulating them.
package conformance

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ctcp/internal/asm"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
)

// DefaultBudget is the committed-instruction ceiling for corpus and fuzzer
// runs. Corpus programs halt within a few thousand instructions; a program
// that runs this long without halting is rejected, not failed.
const DefaultBudget = 100_000

// Program is one corpus entry: the source text and its assembled form.
type Program struct {
	Name   string // file basename without the .s extension
	Path   string
	Source string
	Prog   *isa.Program
}

// Dir returns the corpus directory. The package is always compiled from its
// module location, so the path is relative to internal/conformance.
func Dir() string { return filepath.Join("..", "..", "testdata", "conformance") }

// GoldenPath returns the committed golden-result file.
func GoldenPath() string { return filepath.Join(Dir(), "golden.json") }

// LoadCorpus reads and assembles every .s program in the corpus directory,
// sorted by name so iteration order is deterministic.
func LoadCorpus() ([]Program, error) {
	paths, err := filepath.Glob(filepath.Join(Dir(), "*.s"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("conformance: no corpus programs in %s", Dir())
	}
	out := make([]Program, 0, len(paths))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			return nil, fmt.Errorf("conformance: assembling %s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".s")
		out = append(out, Program{Name: name, Path: path, Source: string(src), Prog: prog})
	}
	return out, nil
}

// ArchResult is the architectural outcome of running a program to HALT: the
// state a conforming implementation must reproduce bit-for-bit.
type ArchResult struct {
	Insts       uint64
	Regs        [isa.NumRegs]uint64
	OutHash     uint64
	MemChecksum uint64
}

// ErrReject marks a program the harness refuses to judge: it faulted or did
// not halt within the budget. Rejection is not divergence — the fuzzer skips
// rejected mutants.
var ErrReject = errors.New("conformance: program rejected")

// RunRef executes prog on the functional emulator until HALT, returning the
// architectural result and the committed-instruction records (the reference
// stream the timing model must retire identically). A fault or a program
// that exceeds budget returns an error wrapping ErrReject.
func RunRef(prog *isa.Program, budget uint64) (ArchResult, []emu.Committed, error) {
	if budget == 0 {
		budget = DefaultBudget
	}
	m := emu.New(prog)
	recs := make([]emu.Committed, 0, 1024)
	for !m.Halted() {
		if m.InstCount() >= budget {
			return ArchResult{}, nil, fmt.Errorf("%w: no HALT within %d instructions", ErrReject, budget)
		}
		c, err := m.Step()
		if err != nil {
			return ArchResult{}, nil, fmt.Errorf("%w: fault: %v", ErrReject, err)
		}
		recs = append(recs, c)
	}
	res := ArchResult{
		Insts:       m.InstCount(),
		Regs:        m.Regs,
		OutHash:     m.OutHash,
		MemChecksum: m.Mem.Checksum(),
	}
	return res, recs, nil
}

// RunPipeline runs prog through the timing model under cfg and checks the
// retirement contract against the reference records: the pipeline must
// retire exactly the reference stream, in order, with byte-identical
// records (asserted via Config.RetireHook), and leave its emulator in the
// reference architectural state. Any violation is returned as an error; a
// configuration the model refuses (core.InvariantError) is returned as a
// plain error, never a panic.
func RunPipeline(prog *isa.Program, budget uint64, cfg pipeline.Config, want []emu.Committed) (ArchResult, error) {
	return RunPipelineOn(new(pipeline.Pipeline), prog, budget, cfg, want)
}

// RunPipelineOn is RunPipeline on a reused pipeline: p is Reset for the run,
// so one pipeline can check a whole corpus.
func RunPipelineOn(p *pipeline.Pipeline, prog *isa.Program, budget uint64, cfg pipeline.Config, want []emu.Committed) (res ArchResult, err error) {
	if budget == 0 {
		budget = DefaultBudget
	}
	defer func() {
		if r := recover(); r != nil {
			ie, ok := r.(*core.InvariantError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("conformance: pipeline invariant violated: %w", ie)
		}
	}()

	m := emu.New(prog)
	var (
		retired int
		hookErr error
	)
	cfg.MaxInsts = 0
	cfg.RetireHook = func(ri core.RetireInfo) {
		if hookErr != nil {
			return
		}
		if retired >= len(want) {
			hookErr = fmt.Errorf("retired more than the %d reference instructions", len(want))
			return
		}
		if ri.Rec != want[retired] {
			hookErr = fmt.Errorf("retire %d: pipeline record %+v != reference %+v", retired, ri.Rec, want[retired])
			return
		}
		retired++
	}
	p.Reset(&emu.LimitStream{S: m, Budget: budget}, cfg)
	p.Run()
	if hookErr != nil {
		return ArchResult{}, fmt.Errorf("conformance: %w", hookErr)
	}
	if retired != len(want) {
		return ArchResult{}, fmt.Errorf("conformance: pipeline retired %d of %d reference instructions", retired, len(want))
	}
	res = ArchResult{
		Insts:       m.InstCount(),
		Regs:        m.Regs,
		OutHash:     m.OutHash,
		MemChecksum: m.Mem.Checksum(),
	}
	return res, nil
}

// Diff is the full differential check: run prog on the emulator, then replay
// it through the timing model under cfg, and compare retirement streams and
// final architectural state. It returns nil on agreement, an ErrReject-
// wrapped error for programs the emulator rejects, and a descriptive error
// on divergence.
func Diff(prog *isa.Program, budget uint64, cfg pipeline.Config) error {
	ref, recs, err := RunRef(prog, budget)
	if err != nil {
		return err
	}
	got, err := RunPipeline(prog, budget, cfg, recs)
	if err != nil {
		return err
	}
	return CompareArch(got, ref)
}

// CompareArch reports the first architectural difference between got and
// want, or nil if they are identical.
func CompareArch(got, want ArchResult) error {
	if got.Insts != want.Insts {
		return fmt.Errorf("conformance: committed %d instructions, want %d", got.Insts, want.Insts)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if got.Regs[r] != want.Regs[r] {
			return fmt.Errorf("conformance: register %v = %#x, want %#x", isa.Reg(r), got.Regs[r], want.Regs[r])
		}
	}
	if got.OutHash != want.OutHash {
		return fmt.Errorf("conformance: OUT checksum %#x, want %#x", got.OutHash, want.OutHash)
	}
	if got.MemChecksum != want.MemChecksum {
		return fmt.Errorf("conformance: memory checksum %#x, want %#x", got.MemChecksum, want.MemChecksum)
	}
	return nil
}

// WriteSource renders a program back to assemblable source: a listing of the
// text segment with absolute control targets, the entry point, and the data
// image as .byte rows. Reassembling the output reproduces Text, Data, and
// Entry exactly (see TestWriteSourceRoundtrip); it is how the fuzzer
// persists divergence repros, which have no symbol table to print.
func WriteSource(p *isa.Program) (string, error) {
	if p.TextBase != isa.DefaultTextBase || p.DataBase != isa.DefaultDataBase {
		return "", fmt.Errorf("conformance: cannot render program with non-default segment bases (text %#x, data %#x)", p.TextBase, p.DataBase)
	}
	entryIdx := -1
	if p.Entry != 0 && p.Entry != p.TextBase {
		off := p.Entry - p.TextBase
		if off%isa.PCStride != 0 || off/isa.PCStride >= uint64(len(p.Text)) {
			return "", fmt.Errorf("conformance: entry %#x outside text", p.Entry)
		}
		entryIdx = int(off / isa.PCStride)
	}
	var b strings.Builder
	if entryIdx >= 0 {
		fmt.Fprintf(&b, "        .entry e%d\n", entryIdx)
	}
	for i, in := range p.Text {
		label := "        "
		if i == entryIdx {
			label = fmt.Sprintf("%-8s", fmt.Sprintf("e%d:", entryIdx))
		}
		fmt.Fprintf(&b, "%s%s\n", label, in)
	}
	if len(p.Data) > 0 {
		b.WriteString("        .data\n")
		for off := 0; off < len(p.Data); off += 16 {
			end := off + 16
			if end > len(p.Data) {
				end = len(p.Data)
			}
			parts := make([]string, 0, 16)
			for _, v := range p.Data[off:end] {
				parts = append(parts, fmt.Sprintf("%d", v))
			}
			fmt.Fprintf(&b, "        .byte   %s\n", strings.Join(parts, ", "))
		}
	}
	return b.String(), nil
}
