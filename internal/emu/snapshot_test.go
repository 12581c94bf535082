package emu

import (
	"testing"

	"ctcp/internal/isa"
	"ctcp/internal/snap"
)

// loopProg builds a small store/load loop: it reads a counter cell from the
// data segment, accumulates into it, and halts after iters iterations —
// enough state churn (registers, memory, OUT checksum) to make round-trip
// bugs visible.
func loopProg(iters int64) *isa.Program {
	base := isa.DefaultTextBase
	return prog([]byte{7, 0, 0, 0, 0, 0, 0, 0},
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: iters},
		// loop:
		isa.Inst{Op: isa.LDQ, Ra: isa.GP, Imm: 0, Rc: isa.R(3)},
		isa.Inst{Op: isa.ADD, Ra: isa.R(3), Rb: isa.R(1), Rc: isa.R(3)},
		isa.Inst{Op: isa.STQ, Ra: isa.GP, Imm: 0, Rb: isa.R(3)},
		isa.Inst{Op: isa.STB, Ra: isa.GP, Rb: isa.R(1), Imm: 64}, // scribble a second page-distinct address
		isa.Inst{Op: isa.SUB, Ra: isa.R(1), Imm: 1, UseImm: true, Rc: isa.R(1)},
		isa.Inst{Op: isa.BNE, Ra: isa.R(1), Imm: int64(base + isa.PCStride)},
		isa.Inst{Op: isa.OUT, Ra: isa.R(3)},
		isa.Inst{Op: isa.HALT},
	)
}

func snapshotMachine(t *testing.T, m *Machine) []byte {
	t.Helper()
	w := snap.NewWriter()
	m.Snapshot(w)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func restoreMachine(t *testing.T, m *Machine, data []byte) {
	t.Helper()
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Restore(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryChecksumRoundTrip pins the checkpointing contract for memory:
// the checksum is invariant under a snapshot/restore round-trip, and
// changes when any page byte changes.
func TestMemoryChecksumRoundTrip(t *testing.T) {
	m := New(loopProg(100))
	if _, err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	before := m.Mem.Checksum()

	w := snap.NewWriter()
	m.Mem.Checkpoint(&w.Codec)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewMemory()
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	restored.Checkpoint(&r.Codec)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := restored.Checksum(); got != before {
		t.Errorf("checksum changed across round-trip: %#x -> %#x", before, got)
	}

	// Any byte change must move the checksum: an existing data byte...
	restored.StoreByte(isa.DefaultDataBase, restored.LoadByte(isa.DefaultDataBase)+1)
	if restored.Checksum() == before {
		t.Error("checksum unchanged after mutating an existing page byte")
	}
	restored.StoreByte(isa.DefaultDataBase, restored.LoadByte(isa.DefaultDataBase)-1)
	if restored.Checksum() != before {
		t.Error("checksum did not return after undoing the mutation")
	}
	// ...and a byte on a never-touched page.
	restored.StoreByte(isa.StackTop+1<<20, 5)
	if restored.Checksum() == before {
		t.Error("checksum unchanged after writing a byte on a fresh page")
	}
}

// TestMachineSnapshotRoundTrip takes a mid-run snapshot, restores it into a
// fresh machine, and checks the restored machine replays the identical
// committed stream to the identical architectural end state.
func TestMachineSnapshotRoundTrip(t *testing.T) {
	p := loopProg(200)
	m := New(p)
	if _, err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	data := snapshotMachine(t, m)

	m2 := New(p)
	restoreMachine(t, m2, data)
	if m2.PC != m.PC || m2.InstCount() != m.InstCount() || m2.Regs != m.Regs {
		t.Fatal("restored machine differs from source before continuing")
	}
	if m2.Mem.Checksum() != m.Mem.Checksum() {
		t.Fatal("restored memory differs from source")
	}

	// Continue both machines in lockstep to completion.
	for i := 0; ; i++ {
		c1, ok1 := m.Next()
		c2, ok2 := m2.Next()
		if ok1 != ok2 {
			t.Fatalf("streams diverge at step %d: ok %v vs %v", i, ok1, ok2)
		}
		if c1 != c2 {
			t.Fatalf("streams diverge at step %d:\n  %+v\n  %+v", i, c1, c2)
		}
		if !ok1 {
			break
		}
	}
	if m.OutHash != m2.OutHash || m.Mem.Checksum() != m2.Mem.Checksum() {
		t.Error("final architectural state differs after identical continuation")
	}
}

// TestRestoreIntoUsedMachine: Restore reuses the pages a machine already
// holds, so restoring into one that has run elsewhere must leave exactly the
// state a restore into a new machine does. The used machine holds a page the
// snapshot lacks (which must read as zero afterwards) and the snapshot's
// pages with other bytes; the snapshot holds a page the used machine never
// touched.
func TestRestoreIntoUsedMachine(t *testing.T) {
	const (
		onlySrc  = isa.DefaultDataBase + 0x10_0000 // a page only the snapshot has
		onlyUsed = isa.DefaultDataBase + 0x20_0000 // a page only the used machine has
	)
	p := loopProg(200)
	src := New(p)
	if _, err := src.Run(300); err != nil {
		t.Fatal(err)
	}
	src.Mem.Write(onlySrc, 0x0123_4567_89ab_cdef, 8)
	data := snapshotMachine(t, src)

	used := New(p)
	if _, err := used.Run(900); err != nil {
		t.Fatal(err)
	}
	used.Mem.Write(onlyUsed, ^uint64(0), 8)
	if used.Mem.Checksum() == src.Mem.Checksum() {
		t.Fatal("used machine's memory already equals the snapshot's; the test proves nothing")
	}
	restoreMachine(t, used, data)
	fresh := New(p)
	restoreMachine(t, fresh, data)

	if got := used.Mem.Read(onlyUsed, 8); got != 0 {
		t.Errorf("page absent from the snapshot reads %#x after restore, want 0", got)
	}
	if got := used.Mem.Read(onlySrc, 8); got != 0x0123_4567_89ab_cdef {
		t.Errorf("page only the snapshot has reads %#x after restore", got)
	}
	if string(snapshotMachine(t, used)) != string(snapshotMachine(t, fresh)) {
		t.Fatal("re-snapshotting the used machine differs from a restore into a new one")
	}
	for i := 0; i < 500; i++ {
		c1, ok1 := fresh.Next()
		c2, ok2 := used.Next()
		if ok1 != ok2 || c1 != c2 {
			t.Fatalf("commit %d after restore diverges:\n  new  %+v (%v)\n  used %+v (%v)", i, c1, ok1, c2, ok2)
		}
		if !ok1 {
			break
		}
	}
	if used.Mem.Checksum() != fresh.Mem.Checksum() || used.OutHash != fresh.OutHash {
		t.Error("architectural state diverges after identical continuation")
	}
}

// TestMachineSnapshotDeterministic: snapshotting the same state twice must
// produce identical bytes (the codec has no iteration-order leakage).
func TestMachineSnapshotDeterministic(t *testing.T) {
	m := New(loopProg(150))
	if _, err := m.Run(400); err != nil {
		t.Fatal(err)
	}
	a := snapshotMachine(t, m)
	b := snapshotMachine(t, m)
	if string(a) != string(b) {
		t.Error("two snapshots of the same machine differ")
	}
}

// TestRestoreWrongProgram: a snapshot must refuse to restore into a machine
// built over a different program.
func TestRestoreWrongProgram(t *testing.T) {
	m := New(loopProg(100))
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	data := snapshotMachine(t, m)

	diff := New(prog(nil,
		isa.Inst{Op: isa.MOVI, Rc: isa.R(1), Imm: 1},
		isa.Inst{Op: isa.HALT},
	))
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	diff.Restore(r)
	if r.Err() == nil {
		t.Error("restore into a machine with a different program layout succeeded")
	}
}

// TestLimitStreamSnapshot round-trips the budget wrapper around a live
// machine and checks the continuation is identical.
func TestLimitStreamSnapshot(t *testing.T) {
	p := loopProg(300)
	ls := &LimitStream{S: New(p), Budget: 700}
	var c1, c2 Committed
	for i := 0; i < 250; i++ {
		if !ls.NextInto(&c1) {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	w := snap.NewWriter()
	ls.Checkpoint(&w.Codec)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	ls2 := &LimitStream{S: New(p)}
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	ls2.Checkpoint(&r.Codec)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if ls2.Budget != 700 {
		t.Errorf("restored budget = %d", ls2.Budget)
	}
	n := 0
	for {
		ok1, ok2 := ls.NextInto(&c1), ls2.NextInto(&c2)
		if ok1 != ok2 || (ok1 && c1 != c2) {
			t.Fatalf("limit streams diverge after %d records", n)
		}
		if !ok1 {
			break
		}
		n++
	}
	if n != 700-250 {
		t.Errorf("continued stream yielded %d records, want %d", n, 700-250)
	}
}
