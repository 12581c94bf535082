package core

// Tests for the fill unit's one-pass dataflow analysis and for the records
// it reads: the fused pass matches the two-pass decoding reference it
// replaced, and a checkpoint whose trace builder section is not the one its
// pending records derive is refused.

import (
	"bytes"
	"math/rand"
	"testing"

	"ctcp/internal/cluster"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/snap"
	"ctcp/internal/trace"
)

// refIntraProducers is the reference producer analysis: for each slot, the
// index of the nearest earlier slot writing each source register, decoded
// from the instruction word (-1 if none).
func refIntraProducers(tr *trace.Trace) [][2]int {
	var prods [][2]int
	var lastDef [isa.NumRegs]int
	for i := range lastDef {
		lastDef[i] = -1
	}
	for i := range tr.Slots {
		s1, s2 := tr.Slots[i].Inst.Srcs()
		p := [2]int{-1, -1}
		if s1 != isa.NoReg {
			p[0] = lastDef[s1]
		}
		if s2 != isa.NoReg {
			p[1] = lastDef[s2]
		}
		prods = append(prods, p)
		if d := tr.Slots[i].Inst.Dest(); d != isa.NoReg {
			lastDef[d] = i
		}
	}
	return prods
}

// refIntraConsumers is the reference consumer analysis: whether a later
// slot reads each slot's destination before it is redefined.
func refIntraConsumers(tr *trace.Trace, prods [][2]int) []bool {
	consumers := make([]bool, len(tr.Slots))
	for i := range prods {
		for _, p := range prods[i] {
			if p >= 0 {
				consumers[p] = true
			}
		}
	}
	return consumers
}

// randomInst draws an instruction of any opcode over a small register pool,
// so sequences are dense in dependences, hit the zero registers R31 and F31
// often, and write them sometimes.
func randomInst(rng *rand.Rand) isa.Inst {
	pool := []isa.Reg{isa.R(1), isa.R(2), isa.R(3), isa.ZeroReg, isa.F(1), isa.F(2), isa.FZeroReg}
	reg := func() isa.Reg { return pool[rng.Intn(len(pool))] }
	return isa.Inst{
		Op:     isa.Op(rng.Intn(isa.NumOps)),
		Ra:     reg(),
		Rb:     reg(),
		Rc:     reg(),
		UseImm: rng.Intn(4) == 0,
		Imm:    int64(rng.Intn(64)),
	}
}

// TestDataflowMatchesReference: on seeded random instruction sequences of
// every length from 1 to a MaxLen past 127 (an int8 slot index would wrap
// there), the fused pass over the decoded operands gives the reference's
// producers and consumers.
func TestDataflowMatchesReference(t *testing.T) {
	const maxLen = 200
	cfg := Config{
		Strategy: FDRT,
		Geom:     cluster.Geometry{Clusters: 4, Width: maxLen / 4, HopLat: 1},
		Trace:    trace.Config{Lines: 64, Ways: 2, MaxLen: maxLen, MaxBlocks: 3},
	}
	f := NewFillUnit(cfg, trace.NewCache(cfg.Trace))
	rng := rand.New(rand.NewSource(1))
	// The opcode draw is uniform, so every operand pattern shows up; these
	// are the ones Srcs and Dest special-case, counted to prove it.
	seen := map[string]int{}
	note := func(in isa.Inst) {
		s1, s2 := in.Srcs()
		switch class := in.Op.Class(); {
		case in.Op == isa.MOVI, in.Op == isa.OUT:
			seen[in.Op.String()]++
		case class == isa.ClassStore || class == isa.ClassFPStore:
			if s1 != isa.NoReg && s2 != isa.NoReg {
				seen["two-source store"]++
			}
		case in.Op == isa.SEXTB || in.Op == isa.CVTQT || in.Op == isa.SQRTT:
			seen["unary"]++
		case class >= isa.ClassFPAdd && class <= isa.ClassFPSqrt:
			seen["FP operate"]++
		}
		if in.Ra.IsZero() || in.Rb.IsZero() {
			seen["R31/F31 operand"]++
		}
	}
	lengths := make([]int, 0, 2*maxLen)
	for n := 1; n <= maxLen; n++ {
		lengths = append(lengths, n, 1+rng.Intn(maxLen))
	}
	for _, n := range lengths {
		tr := &trace.Trace{Slots: make([]trace.Slot, n)}
		infos := make([]RetireInfo, n)
		for i := range infos {
			in := randomInst(rng)
			note(in)
			tr.Slots[i].Inst = in
			infos[i].Rec = emu.Committed{Seq: uint64(i), PC: uint64(4 * i), Inst: in}
			infos[i].Rec.Decode()
		}
		wantProds := refIntraProducers(tr)
		wantCons := refIntraConsumers(tr, wantProds)
		gotProds := f.dataflow(infos)
		for i := range wantProds {
			if int(gotProds[i][0]) != wantProds[i][0] || int(gotProds[i][1]) != wantProds[i][1] {
				t.Fatalf("length %d slot %d (%+v): producers %v, reference %v", n, i, tr.Slots[i].Inst, gotProds[i], wantProds[i])
			}
			if f.consumers[i] != wantCons[i] {
				t.Fatalf("length %d slot %d (%+v): consumer %v, reference %v", n, i, tr.Slots[i].Inst, f.consumers[i], wantCons[i])
			}
		}
		if len(gotProds) != n || len(f.consumers) != n {
			t.Fatalf("length %d: dataflow returned %d producers and %d consumer flags", n, len(gotProds), len(f.consumers))
		}
	}
	for _, kind := range []string{isa.MOVI.String(), isa.OUT.String(), "two-source store", "unary", "FP operate", "R31/F31 operand"} {
		if seen[kind] == 0 {
			t.Errorf("the random sequences held no %s instruction", kind)
		}
	}
}

// encodeFill writes f's checkpoint in FillUnit.Checkpoint's layout, except
// that the trace builder section holds slots, blocks and indirect as given
// and only the first records pending records follow it.
func encodeFill(t *testing.T, f *FillUnit, slots []trace.Slot, blocks int, indirect bool, records int) []byte {
	t.Helper()
	w := snap.NewWriter()
	strategy, n, migrations := int(f.cfg.Strategy), len(slots), 0
	w.Begin("fill")
	w.Int(&strategy)
	w.Int(&f.cfg.Geom.Clusters)
	w.Int(&f.cfg.Geom.Width)
	w.Int(&f.cfg.Trace.MaxLen)
	w.Bool(&f.cfg.DisableChains)
	f.chains.Checkpoint(&w.Codec)
	w.Begin("tracebuilder")
	w.Int(&f.cfg.Trace.MaxLen)
	w.Int(&f.cfg.Trace.MaxBlocks)
	w.Int(&n)
	for i := range slots {
		s := &slots[i]
		w.U64(&s.PC)
		s.Inst.Checkpoint(&w.Codec)
		w.Bool(&s.Taken)
		w.Int(&s.SlotIndex)
		w.Int(&s.Cluster)
		w.U8(&s.Profile.Role)
		w.U8(&s.Profile.ChainCluster)
	}
	w.Int(&blocks)
	w.Bool(&indirect)
	w.End()
	w.Int(&records)
	for i := 0; i < records; i++ {
		f.pending[i].Checkpoint(&w.Codec)
	}
	w.Int(&migrations) // no migration history: no trace was built
	w.Counters(&f.S)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreRejectsUnpairedPending: the trace builder section of a
// checkpoint is derived from the pending records that follow it, so a
// checkpoint is refused unless every slot equals what its record derives
// (PC, instruction and direction from the record, SlotIndex i, no cluster,
// no profile), the block count is the rules' and the trace does not end
// indirect, with one record per slot. The intact checkpoint, which is
// FillUnit.Checkpoint's encoding byte for byte, decodes.
func TestRestoreRejectsUnpairedPending(t *testing.T) {
	f := NewFillUnit(testConfig(FDRT), trace.NewCache(trace.DefaultConfig()))
	retireN(f, 5, 0x1000)
	derived := func() []trace.Slot {
		var slots []trace.Slot
		for i := range f.pending {
			rec := &f.pending[i].Rec
			slots = append(slots, trace.Slot{PC: rec.PC, Inst: rec.Inst, SlotIndex: i})
		}
		return slots
	}
	restore := func(data []byte) error {
		r, err := snap.NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		NewFillUnit(testConfig(FDRT), trace.NewCache(trace.DefaultConfig())).Checkpoint(&r.Codec)
		return r.Close()
	}

	w := snap.NewWriter()
	f.Checkpoint(&w.Codec)
	want, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeFill(t, f, derived(), 1, false, 5); !bytes.Equal(got, want) {
		t.Fatal("the derived builder section is not FillUnit.Checkpoint's encoding")
	}
	if err := restore(want); err != nil {
		t.Fatalf("intact checkpoint refused: %v", err)
	}

	for _, tc := range []struct {
		name     string
		edit     func(s []trace.Slot)
		blocks   int
		indirect bool
		records  int
	}{
		{name: "one record fewer", records: 4},
		{name: "PC", edit: func(s []trace.Slot) { s[2].PC += 4 }},
		{name: "Inst", edit: func(s []trace.Slot) { s[2].Inst.Rc = isa.R(9) }},
		{name: "Taken", edit: func(s []trace.Slot) { s[2].Taken = true }},
		{name: "SlotIndex", edit: func(s []trace.Slot) { s[0].SlotIndex, s[1].SlotIndex = 1, 0 }},
		{name: "Cluster", edit: func(s []trace.Slot) { s[3].Cluster = 1 }},
		{name: "Profile", edit: func(s []trace.Slot) { s[4].Profile = trace.Profile{Role: trace.RoleLeader, ChainCluster: 2} }},
		{name: "indirect", indirect: true},
		{name: "blocks", blocks: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slots := derived()
			if tc.edit != nil {
				tc.edit(slots)
			}
			blocks, records := 1, 5
			if tc.blocks != 0 {
				blocks = tc.blocks
			}
			if tc.records != 0 {
				records = tc.records
			}
			if err := restore(encodeFill(t, f, slots, blocks, tc.indirect, records)); err == nil {
				t.Fatal("checkpoint accepted")
			}
		})
	}
}
