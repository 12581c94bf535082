package emu_test

import (
	"runtime"
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// TestMachineRestoreReusesPages pins DESIGN §10's claim that a restore
// allocates only for pages the machine has never touched: decoding a gzip
// checkpoint taken after 500k instructions into a machine that already
// holds every one of its pages allocates less than one 4,096-byte page per
// decode, however many pages the checkpoint carries.
func TestMachineRestoreReusesPages(t *testing.T) {
	const pageSize, runs = 4096, 20
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("no gzip kernel")
	}
	prog := bm.ProgramFor(1_000_000)
	m := emu.New(prog)
	if n, err := m.Run(500_000); err != nil || n != 500_000 {
		t.Fatalf("ran %d instructions (err %v), want 500000", n, err)
	}
	w := snap.NewWriter()
	m.Snapshot(w)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4*pageSize {
		t.Fatalf("a %d-byte checkpoint carries too few pages to measure", len(data))
	}

	target := emu.New(prog)
	restore := func() {
		r, err := snap.NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		target.Restore(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	restore() // the first decode allocates the pages target never touched
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		restore()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes in %d allocations per decode of a %d-byte checkpoint",
		per, (after.Mallocs-before.Mallocs)/runs, len(data))
	if per >= pageSize {
		t.Errorf("decoding into a machine holding every page allocates %d bytes per decode, want under %d", per, pageSize)
	}
	if target.Mem.Checksum() != m.Mem.Checksum() || target.Regs != m.Regs || target.PC != m.PC {
		t.Error("the decoded machine differs from the one encoded")
	}
}
