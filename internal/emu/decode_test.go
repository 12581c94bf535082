package emu_test

import (
	"testing"
	"unsafe"

	"ctcp/internal/emu"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// TestTemplateRestoreKeepsDecode round-trips the predecoded template record
// of every static instruction of a kernel through Committed.Checkpoint,
// encoding and then decoding into a zero record. Src and Dest are not coded,
// so the decoded record equals the template only if decoding derives them
// again.
func TestTemplateRestoreKeepsDecode(t *testing.T) {
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("no gzip kernel")
	}
	tmpls := emu.New(bm.Build(1)).Templates()
	w := snap.NewWriter()
	for i := range tmpls {
		tmpls[i].Checkpoint(&w.Codec)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range tmpls {
		var got emu.Committed
		got.Checkpoint(&r.Codec)
		if got != want {
			t.Fatalf("static instruction %d (%v): restored %+v, want %+v", i, want.Inst, got, want)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedSize pins the record's size: Src and Dest sit in the padding
// after Taken, and the record is copied at every stage of the stream stack
// once per simulated instruction.
func TestCommittedSize(t *testing.T) {
	if n := unsafe.Sizeof(emu.Committed{}); n != 72 {
		t.Errorf("emu.Committed is %d bytes, want 72", n)
	}
}
