package experiment

import (
	"encoding/json"
	"os"
	"testing"

	"ctcp/internal/pipeline"
)

// TestStoreRejectsMislabeledRecord: a record copied to the wrong fingerprint
// file name reads as a miss, not as someone else's result, and Put refuses
// a fingerprint that is not in canonical form rather than writing a record
// Get would reject forever.
func TestStoreRejectsMislabeledRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(42); ok {
		t.Fatal("empty store returned a record")
	}
	rec := &Record{Fingerprint: FormatFP(42), Benchmark: "gzip", Config: "base",
		Budget: 1, Mode: "full", Stats: &pipeline.Stats{Cycles: 7, Retired: 3}}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(42)
	if !ok || got.Benchmark != "gzip" {
		t.Fatalf("round trip failed: %+v ok=%v", got, ok)
	}
	// Impersonation: copy the record to a different fingerprint's file name.
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(43), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(43); ok {
		t.Error("mislabeled record was served")
	}
	// Corrupt record: also a miss.
	if err := os.WriteFile(st.path(44), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(44); ok {
		t.Error("corrupt record was served")
	}
	// Non-canonical spellings of a valid value are refused, not written
	// where Get would read them as mislabeled.
	for _, fp := range []string{"2d", "000000000000002D", "0x000000000000002d", "not-hex", ""} {
		bad := *rec
		bad.Fingerprint = fp
		if err := st.Put(&bad); err == nil {
			t.Errorf("Put accepted non-canonical fingerprint %q", fp)
		}
	}
	if n := st.Len(); n != 3 {
		t.Errorf("Len = %d, want 3 files on disk", n)
	}
}
