package conformance

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"ctcp/internal/asm"
	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite testdata/conformance/golden.json from the current emulator")

// goldenEntry is the committed architectural result of one corpus program.
// Registers are stored sparsely (non-zero only) as hex strings so golden
// diffs are reviewable.
type goldenEntry struct {
	Insts       uint64            `json:"insts"`
	OutHash     string            `json:"out_hash"`
	MemChecksum string            `json:"mem_checksum"`
	Regs        map[string]string `json:"regs"`
}

func toEntry(res ArchResult) goldenEntry {
	e := goldenEntry{
		Insts:       res.Insts,
		OutHash:     fmt.Sprintf("%#016x", res.OutHash),
		MemChecksum: fmt.Sprintf("%#016x", res.MemChecksum),
		Regs:        map[string]string{},
	}
	for r := 0; r < isa.NumRegs; r++ {
		if res.Regs[r] != 0 {
			e.Regs[isa.Reg(r).String()] = fmt.Sprintf("%#x", res.Regs[r])
		}
	}
	return e
}

func fromEntry(t *testing.T, name string, e goldenEntry) ArchResult {
	t.Helper()
	parse := func(s string) uint64 {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("%s: bad golden value %q: %v", name, s, err)
		}
		return v
	}
	res := ArchResult{Insts: e.Insts, OutHash: parse(e.OutHash), MemChecksum: parse(e.MemChecksum)}
	names := make(map[string]int, isa.NumRegs)
	for r := 0; r < isa.NumRegs; r++ {
		names[isa.Reg(r).String()] = r
	}
	keys := make([]string, 0, len(e.Regs))
	for k := range e.Regs { //ctcp:lint-ok maporder -- keys are collected and sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idx, ok := names[k]
		if !ok {
			t.Fatalf("%s: unknown register %q in golden entry", name, k)
		}
		res.Regs[idx] = parse(e.Regs[k])
	}
	return res
}

func mustCorpus(t *testing.T) []Program {
	t.Helper()
	corpus, err := LoadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(GoldenPath())
	if err != nil {
		t.Fatalf("reading golden results (run `go test ./internal/conformance -run TestCorpusGolden -update` to create): %v", err)
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("parsing %s: %v", GoldenPath(), err)
	}
	return golden
}

// TestCorpusGolden pins every corpus program's architectural result (final
// register file, OUT checksum, memory checksum, instruction count) to the
// committed golden.json. Golden updates are an explicit, reviewed act:
// rerun with -update and commit the numeric diff together with the change
// that caused it.
func TestCorpusGolden(t *testing.T) {
	corpus := mustCorpus(t)
	if len(corpus) < 20 {
		t.Fatalf("conformance corpus has %d programs, want >= 20", len(corpus))
	}
	if *update {
		entries := make(map[string]goldenEntry, len(corpus))
		for _, p := range corpus {
			res, _, err := RunRef(p.Prog, 0)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			entries[p.Name] = toEntry(res)
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(GoldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d programs)", GoldenPath(), len(entries))
		return
	}
	golden := readGolden(t)
	if len(golden) != len(corpus) {
		t.Errorf("golden.json has %d entries, corpus has %d programs (rerun -update)", len(golden), len(corpus))
	}
	for _, p := range corpus {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			entry, ok := golden[p.Name]
			if !ok {
				t.Fatalf("no golden entry for %s (rerun -update)", p.Name)
			}
			want := fromEntry(t, p.Name, entry)
			got, _, err := RunRef(p.Prog, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareArch(got, want); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCorpusPipelineAgreement runs every corpus program through the timing
// model under every assignment strategy and asserts the retirement contract:
// byte-identical records in program order via RetireHook, and the golden
// architectural end state.
func TestCorpusPipelineAgreement(t *testing.T) {
	corpus := mustCorpus(t)
	for _, p := range corpus {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ref, recs, err := RunRef(p.Prog, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range core.Strategies() {
				cfg := pipeline.DefaultConfig().WithStrategy(k, false)
				got, err := RunPipeline(p.Prog, 0, cfg, recs)
				if err != nil {
					t.Errorf("%v: %v", k, err)
					continue
				}
				if err := CompareArch(got, ref); err != nil {
					t.Errorf("%v: %v", k, err)
				}
			}
		})
	}
}

// TestCorpusRetireOperands runs every corpus program under every assignment
// strategy and checks that each record the pipeline retires carries the
// operands its instruction word decodes to: the pipeline and the fill
// unit's dataflow pass read Rec.Src and Rec.Dest instead of decoding.
func TestCorpusRetireOperands(t *testing.T) {
	p := new(pipeline.Pipeline)
	for _, prog := range mustCorpus(t) {
		for _, k := range core.Strategies() {
			retired, bad := 0, 0
			cfg := pipeline.DefaultConfig().WithStrategy(k, false)
			cfg.RetireHook = func(ri core.RetireInfo) {
				retired++
				s1, s2 := ri.Rec.Inst.Srcs()
				if (ri.Rec.Src != [2]isa.Reg{s1, s2} || ri.Rec.Dest != ri.Rec.Inst.Dest()) && bad < 3 {
					bad++
					t.Errorf("%s/%v: retire %d (%v): Src %v Dest %v, instruction decodes to %v %v",
						prog.Name, k, retired, ri.Rec.Inst, ri.Rec.Src, ri.Rec.Dest, [2]isa.Reg{s1, s2}, ri.Rec.Inst.Dest())
				}
			}
			p.Reset(&emu.LimitStream{S: emu.New(prog.Prog), Budget: DefaultBudget}, cfg)
			p.Run()
			if retired == 0 {
				t.Errorf("%s/%v: nothing retired", prog.Name, k)
			}
		}
	}
}

// TestOpCoverage asserts that every defined opcode is exercised by at least
// one corpus program, so no instruction the timing model handles escapes
// conformance coverage. There is deliberately no exclusion list: a new
// opcode fails this test until the corpus grows a program for it.
func TestOpCoverage(t *testing.T) {
	corpus := mustCorpus(t)
	seen := make([]bool, isa.NumOps)
	where := make([][]string, isa.NumOps)
	for _, p := range corpus {
		for _, in := range p.Prog.Text {
			if int(in.Op) < isa.NumOps && !seen[in.Op] {
				seen[in.Op] = true
			}
			if int(in.Op) < isa.NumOps && len(where[in.Op]) < 3 {
				where[in.Op] = append(where[in.Op], p.Name)
			}
		}
	}
	for op := 0; op < isa.NumOps; op++ {
		if !seen[op] {
			t.Errorf("opcode %v appears in no corpus program", isa.Op(op))
		}
	}
}

// TestWriteSourceRoundtrip proves the repro writer's output is faithful:
// rendering any corpus program to source and reassembling it reproduces the
// text, data, and entry point exactly. The fuzzer depends on this to write
// replayable divergence repros.
func TestWriteSourceRoundtrip(t *testing.T) {
	corpus := mustCorpus(t)
	for _, p := range corpus {
		src, err := WriteSource(p.Prog)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("%s: rendered source does not assemble: %v\n%s", p.Name, err, src)
		}
		if len(got.Text) != len(p.Prog.Text) {
			t.Fatalf("%s: roundtrip text length %d, want %d", p.Name, len(got.Text), len(p.Prog.Text))
		}
		for i := range got.Text {
			if got.Text[i] != p.Prog.Text[i] {
				t.Errorf("%s: inst %d roundtrip %+v, want %+v", p.Name, i, got.Text[i], p.Prog.Text[i])
			}
		}
		if string(got.Data) != string(p.Prog.Data) {
			t.Errorf("%s: data image does not roundtrip (%d vs %d bytes)", p.Name, len(got.Data), len(p.Prog.Data))
		}
		if got.Entry != p.Prog.Entry {
			t.Errorf("%s: entry %#x, want %#x", p.Name, got.Entry, p.Prog.Entry)
		}
	}
}

// TestMutationsDeterministic pins the seed-driven contract: the same
// (program, seed) always derives the same mutant.
func TestMutationsDeterministic(t *testing.T) {
	corpus := mustCorpus(t)
	for _, p := range corpus[:5] {
		for seed := uint64(0); seed < 16; seed++ {
			a := Mutations(p.Prog, seed)
			b := Mutations(p.Prog, seed)
			if len(a) != len(b) {
				t.Fatalf("%s seed %d: mutation counts differ (%d vs %d)", p.Name, seed, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s seed %d: mutation %d differs (%v vs %v)", p.Name, seed, i, a[i], b[i])
				}
			}
			pa, pb := Apply(p.Prog, a), Apply(p.Prog, b)
			for i := range pa.Text {
				if pa.Text[i] != pb.Text[i] {
					t.Fatalf("%s seed %d: mutants differ at inst %d", p.Name, seed, i)
				}
			}
		}
	}
}

// TestOpGroupsShareFormat checks opGroups' claim: a substitution keeps the
// operand format and register files, so every op in a group has the same
// Format and FP columns.
func TestOpGroupsShareFormat(t *testing.T) {
	for _, g := range opGroups {
		first := g[0].Info()
		for _, op := range g[1:] {
			if info := op.Info(); info.Format != first.Format || info.FP != first.FP {
				t.Errorf("group %v: %s has format %d fp %03b, %s has %d %03b",
					g, op, info.Format, info.FP, g[0], first.Format, first.FP)
			}
		}
	}
}

// TestMutantsStillCheckable runs a spread of mutants through the full
// differential check: most should either be rejected (no halt / fault) or
// agree; any divergence here is a real model bug.
func TestMutantsStillCheckable(t *testing.T) {
	corpus := mustCorpus(t)
	strategies := core.Strategies()
	checked, rejected := 0, 0
	for pi, p := range corpus {
		for seed := uint64(0); seed < 4; seed++ {
			mut := Apply(p.Prog, Mutations(p.Prog, seed*7+uint64(pi)))
			cfg := pipeline.DefaultConfig().WithStrategy(strategies[int(seed)%len(strategies)], false)
			err := Diff(mut, 30_000, cfg)
			switch {
			case err == nil:
				checked++
			case isReject(err):
				rejected++
			default:
				src, _ := WriteSource(mut)
				t.Fatalf("%s seed %d: divergence on mutant: %v\n%s", p.Name, seed, err, src)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("every mutant was rejected (%d); mutation yield is broken", rejected)
	}
	t.Logf("mutants checked: %d agreed, %d rejected", checked, rejected)
}
