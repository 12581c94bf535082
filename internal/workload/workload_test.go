package workload

import (
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/prog"
)

func TestSuiteSizes(t *testing.T) {
	if n := len(SPECint()); n != 12 {
		t.Errorf("SPECint has %d programs, want 12", n)
	}
	if n := len(MediaBench()); n != 14 {
		t.Errorf("MediaBench has %d programs, want 14", n)
	}
	if n := len(Selected()); n != 6 {
		t.Errorf("Selected has %d programs, want 6", n)
	}
	want := map[string]bool{"bzip2": true, "eon": true, "gzip": true,
		"perlbmk": true, "twolf": true, "vpr": true}
	for _, bm := range Selected() {
		if !want[bm.Name] {
			t.Errorf("unexpected selected benchmark %q", bm.Name)
		}
	}
	seen := map[string]bool{}
	for _, bm := range All() {
		if seen[bm.Name] {
			t.Errorf("duplicate benchmark name %q", bm.Name)
		}
		seen[bm.Name] = true
		if bm.Description == "" {
			t.Errorf("%s has no description", bm.Name)
		}
	}
}

func TestAllBenchmarksRunToCompletion(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			m := emu.New(bm.Build(1))
			n, err := m.Run(5_000_000)
			if err != nil {
				t.Fatalf("faulted after %d insts: %v", n, err)
			}
			if !m.Halted() {
				t.Fatalf("did not halt within budget (%d insts)", n)
			}
			if n < 1000 {
				t.Errorf("only %d instructions at scale 1: too small to be meaningful", n)
			}
			if m.OutHash == 0 {
				t.Error("checksum is zero; kernels may be dead code")
			}
		})
	}
}

func TestChecksumsDeterministic(t *testing.T) {
	for _, bm := range []string{"bzip2", "eon", "adpcm_enc"} {
		b, ok := ByName(bm)
		if !ok {
			t.Fatalf("benchmark %q missing", bm)
		}
		if b.Checksum(1) != b.Checksum(1) {
			t.Errorf("%s checksum not deterministic", bm)
		}
	}
}

func TestScaleExtendsRun(t *testing.T) {
	bm, _ := ByName("gzip")
	m1 := emu.New(bm.Build(1))
	n1, _ := m1.Run(0)
	m3 := emu.New(bm.Build(3))
	n3, _ := m3.Run(0)
	if n3 <= n1 {
		t.Errorf("scale 3 ran %d insts, scale 1 ran %d", n3, n1)
	}
	perIter := (n3 - n1) / 2
	if perIter < 500 {
		t.Errorf("per-iteration instruction count %d too small", perIter)
	}
}

// TestProgramForMeetsBudget pins ProgramFor's promise over every kernel:
// the exact floor at 8k and 200k instructions, and at least 99.75% of it at
// 2M, where the linear calibration may undershoot. The programs are
// deterministic, so these are fixed facts about the suite, not tolerances.
func TestProgramForMeetsBudget(t *testing.T) {
	for _, bm := range All() {
		for _, budget := range []uint64{8_000, 200_000, 2_000_000} {
			n, err := emu.New(bm.ProgramFor(budget)).Run(0)
			if err != nil {
				t.Fatalf("%s at %d: %v", bm.Name, budget, err)
			}
			floor := budget
			if budget > 200_000 {
				floor = budget - budget/400
			}
			if n < floor {
				t.Errorf("%s: ProgramFor(%d) ran %d instructions, want at least %d", bm.Name, budget, n, floor)
			}
		}
	}
	bm, _ := ByName("twolf")
	if bm.ProgramFor(200_000) != bm.ProgramFor(200_000) {
		t.Error("ProgramFor not memoized")
	}
}

func TestByNameMissing(t *testing.T) {
	if _, ok := ByName("does-not-exist"); ok {
		t.Error("ByName returned ok for unknown benchmark")
	}
}

func TestInstructionMixes(t *testing.T) {
	// The suite must collectively exercise every functional-unit class the
	// cluster provides; per benchmark, check the expected flavor.
	type mix struct {
		loads, stores, branches, fp, mulDiv, indirect uint64
		total                                         uint64
	}
	measure := func(p *isa.Program) mix {
		m := emu.New(p)
		var mx mix
		for {
			c, ok := m.Next()
			if !ok {
				break
			}
			mx.total++
			cl := c.Inst.Op.Class()
			switch {
			case cl.IsLoad():
				mx.loads++
			case cl.IsStore():
				mx.stores++
			case cl == isa.ClassBranch || cl == isa.ClassFPBranch:
				mx.branches++
			case cl == isa.ClassJump:
				mx.indirect++
			case cl == isa.ClassIntMul || cl == isa.ClassIntDiv:
				mx.mulDiv++
			case cl == isa.ClassFPAdd || cl == isa.ClassFPMul || cl == isa.ClassFPDiv || cl == isa.ClassFPSqrt:
				mx.fp++
			}
		}
		return mx
	}
	eon, _ := ByName("eon")
	if mx := measure(eon.Build(1)); mx.fp*20 < mx.total {
		t.Errorf("eon FP fraction too small: %d/%d", mx.fp, mx.total)
	}
	mcf, _ := ByName("mcf")
	if mx := measure(mcf.Build(1)); mx.loads*6 < mx.total {
		t.Errorf("mcf load fraction too small: %d/%d", mx.loads, mx.total)
	}
	perl, _ := ByName("perlbmk")
	if mx := measure(perl.Build(1)); mx.indirect == 0 {
		t.Error("perlbmk has no indirect control flow")
	}
	gap, _ := ByName("gap")
	if mx := measure(gap.Build(1)); mx.mulDiv == 0 {
		t.Error("gap has no multiplies")
	}
	for _, bm := range All() {
		mx := measure(bm.Build(1))
		if mx.branches*50 < mx.total {
			t.Errorf("%s: branch fraction %d/%d below 2%%", bm.Name, mx.branches, mx.total)
		}
		if mx.loads == 0 || mx.stores == 0 {
			t.Errorf("%s: missing loads or stores (%d/%d)", bm.Name, mx.loads, mx.stores)
		}
	}
}

func TestFNVKernelMatchesReference(t *testing.T) {
	// Cross-check emitFNV against a host FNV-1a (32-bit folding) on the
	// same data.
	b := prog.New()
	r := newRNG(77)
	data := randBytes(r, 64)
	b.Bytes("d", data)
	b.Movi(isa.R(6), 0)
	emitFNV(b, "d", 64, 1, 1)
	b.Out(isa.R(6))
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var h uint64 = 0x811C9DC5
	for _, c := range data {
		h ^= uint64(c)
		h *= 16777619
	}
	if m.OutValues[0] != h {
		t.Errorf("FNV kernel = %#x, reference = %#x", m.OutValues[0], h)
	}
}

func TestSumKernelMatchesReference(t *testing.T) {
	b := prog.New()
	vals := []uint64{5, 10, 15, 20, 1, 2, 3, 4}
	b.Quads("v", vals...)
	b.Movi(isa.R(6), 0)
	emitSum(b, "v", int64(len(vals)))
	b.Out(isa.R(6))
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range vals {
		want += v
	}
	if m.OutValues[0] != want {
		t.Errorf("sum kernel = %d, want %d", m.OutValues[0], want)
	}
}

func TestMTFKernelPreservesPermutation(t *testing.T) {
	// After any number of MTF steps the table must remain a permutation of
	// 0..63.
	bm, _ := ByName("bzip2")
	p := bm.Build(2)
	m := emu.New(p)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	addr := p.Symbols["mtftab"]
	seen := make([]bool, 64)
	for i := 0; i < 64; i++ {
		v := m.Mem.LoadByte(addr + uint64(i))
		if v >= 64 || seen[v] {
			t.Fatalf("MTF table corrupt at %d: value %d", i, v)
		}
		seen[v] = true
	}
}

func TestPointerChaseListIsCycle(t *testing.T) {
	b := prog.New()
	r := newRNG(123)
	placeList(b, r, "L", 64)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	head := m.Mem.Read(p.Symbols["L_head"], 8)
	cur := head
	for i := 0; i < 64; i++ {
		cur = m.Mem.Read(cur, 8)
	}
	if cur != head {
		t.Error("list does not close into a 64-node cycle")
	}
}
