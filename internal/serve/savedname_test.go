package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/experiment"
	"ctcp/internal/pipeline"
	"ctcp/internal/workload"
)

// TestSavedNameResumesInServer: ctcpsim -save, ctcpd and ctcpsim -resume
// share one checkpoint. A named save pauses gzip/fdrt at its first
// checkpoint; a server over the same directory, sent the equivalent
// checkpointed request, resumes from that checkpoint (its first segment event
// is the second boundary) and finishes bit-identical to the in-memory
// segmented run; the name then resumes from the record the server wrote.
func TestSavedNameResumesInServer(t *testing.T) {
	dir := t.TempDir()
	st, err := experiment.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := experiment.SaveName(st, "warm", "gzip", "fdrt", testBudget, testEvery)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Status != experiment.NameCheckpoint {
		t.Fatalf("save status %q, want checkpoint", saved.Status)
	}

	// Reference: the same segment schedule, run in memory.
	bm, _ := workload.ByName("gzip")
	cfg := experiment.StrategyConfigs()["fdrt"]
	p := pipeline.New(&emu.LimitStream{S: emu.New(bm.ProgramFor(testBudget)), Budget: testBudget}, cfg)
	for next := testEvery; ; next += testEvery {
		if p.RunTo(next) || next >= testBudget {
			break
		}
	}
	want, err := json.Marshal(p.Finish())
	if err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{Store: dir, Workers: 1})
	v, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "fdrt",
		Budget: testBudget, Checkpoint: true, CheckpointEvery: testEvery})
	if code != http.StatusAccepted || v.Fingerprint != saved.Fingerprint {
		t.Fatalf("submit: status %d fingerprint %s, want 202 for the saved run %s", code, v.Fingerprint, saved.Fingerprint)
	}
	v = waitJob(t, hs.URL, v.ID)
	if got := statsJSON(t, v); got != string(want) {
		t.Errorf("server result differs from the segmented reference:\n got %s\nwant %s", got, want)
	}
	var first uint64
	for _, ev := range readEvents(t, hs.URL, v.ID) {
		if ev.Type == "segment" && first == 0 {
			first = ev.Done
		}
	}
	if first != 2*testEvery {
		t.Errorf("first segment event at %d, want %d: the server did not resume the saved checkpoint", first, 2*testEvery)
	}

	e, s, err := experiment.ResumeName(st, "warm")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(s); e.Status != experiment.NameDone || string(got) != string(want) {
		t.Errorf("resume after the server: status %q, stats match=%v; want done and identical", e.Status, string(got) == string(want))
	}
}
