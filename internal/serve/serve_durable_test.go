package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctcp/internal/experiment"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// TestServeFailedJobRetry is the headline poisoning regression: a job that
// fails must not wedge its fingerprint. Resubmitting the same request after
// a failure has to run a fresh simulation — the service dedup index (byFP)
// drops the failed job, and the retry runs on a runner of its own — and
// succeed.
func TestServeFailedJobRetry(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	var calls atomic.Int64
	s.mu.Lock()
	s.testRunFn = func(prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("injected transient fault")
		}
		return &pipeline.Stats{Cycles: 4242, Retired: testBudget}, nil
	}
	s.mu.Unlock()
	req := Request{Benchmark: "gzip", Config: "base", Budget: testBudget}

	v1, code := submit[jobView](t, hs.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	v1 = waitJob(t, hs.URL, v1.ID)
	if v1.Status != StatusFailed || !strings.Contains(v1.Error, "injected transient fault") {
		t.Fatalf("first run: status %q error %q, want injected failure", v1.Status, v1.Error)
	}
	if got := metricValue(t, hs.URL, "ctcpd_jobs_failed_total"); got != 1 {
		t.Errorf("ctcpd_jobs_failed_total = %v, want 1", got)
	}

	// The fix under test: before it, this resubmission was answered with the
	// stale failed job (200) forever; the fingerprint was poisoned.
	v2, code := submit[jobView](t, hs.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after failure: status %d, want 202 (fresh simulation)", code)
	}
	if v2.ID == v1.ID {
		t.Fatalf("resubmit was answered with the failed job %s", v1.ID)
	}
	if v2.Fingerprint != v1.Fingerprint {
		t.Fatalf("retry changed the fingerprint: %s vs %s", v2.Fingerprint, v1.Fingerprint)
	}
	v2 = waitJob(t, hs.URL, v2.ID)
	if v2.Status != StatusDone {
		t.Fatalf("retry: status %q error %q, want done", v2.Status, v2.Error)
	}
	if v2.Stats.Cycles != 4242 {
		t.Errorf("retry stats %+v, want the second (successful) simulation's", v2.Stats)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 2 {
		t.Errorf("ctcpd_runner_started_total = %v, want 2 (failure + retry)", got)
	}
	// A third submission joins the now-successful job.
	v3, code := submit[jobView](t, hs.URL, req)
	if code != http.StatusOK || v3.ID != v2.ID {
		t.Errorf("post-success submit: status %d job %s, want 200 for %s", code, v3.ID, v2.ID)
	}
}

// TestServeRestartReplaysQueue is the durable-queue property: kill a server
// with a running checkpointed job and queued jobs behind it, restart over
// the same directories, and every accepted job reaches done — bit-identical
// to uninterrupted direct runs — while fingerprints the first process
// already completed are answered from the store with zero resimulation.
func TestServeRestartReplaysQueue(t *testing.T) {
	storeDir := t.TempDir()
	reqBig := Request{Benchmark: "gzip", Config: "base", Budget: 500_000,
		Checkpoint: true, CheckpointEvery: testEvery}
	reqA := Request{Benchmark: "gzip", Config: "fdrt", Budget: testBudget}
	reqB := Request{Benchmark: "gzip", Config: "base", Budget: testBudget}
	reqs := []Request{reqBig, reqA, reqB}

	// References: the same three runs executed directly, uninterrupted.
	want := make(map[string]string) // config+budget -> stats JSON
	for _, req := range reqs {
		opts := experiment.Options{Budget: req.Budget}
		if req.Checkpoint {
			opts.CheckpointDir = t.TempDir()
			opts.CheckpointEvery = req.CheckpointEvery
		}
		bm, _ := workload.ByName(req.Benchmark)
		stats, err := experiment.NewRunner(opts).RunErr(bm, req.Config, experiment.StrategyConfigs()[req.Config])
		if err != nil {
			t.Fatalf("reference %s/%d: %v", req.Config, req.Budget, err)
		}
		buf, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("%s/%d", req.Config, req.Budget)] = string(buf)
	}

	s1, err := New(Config{Store: storeDir, Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs1 := httptest.NewServer(s1)
	fps := make([]string, len(reqs))
	for i, req := range reqs {
		v, code := submit[jobView](t, hs1.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		fps[i] = v.Fingerprint
		if i == 0 {
			// Pin the only worker with the big checkpointed run so the
			// following submissions are still queued at shutdown.
			waitRunning(t, hs1.URL, v.ID)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	hs1.Close()

	// What did the first process finish? Anything already in the store must
	// not be resimulated; everything else must be replayed to completion.
	probe, err := experiment.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, hex := range fps {
		fp, err := experiment.ParseFP(hex)
		if err != nil {
			t.Fatalf("fingerprint %q: %v", hex, err)
		}
		if _, ok := probe.Get(fp); !ok {
			replayed++
		}
	}
	if replayed == 0 {
		t.Log("first server finished everything before shutdown; replay set is empty")
	}

	// Restart over the same store (checkpoints included) and journal.
	_, hs2 := newTestServer(t, Config{Store: storeDir, Workers: 2})
	for i, req := range reqs {
		v, code := submit[jobView](t, hs2.URL, req)
		if code != http.StatusOK {
			t.Fatalf("post-restart submit %d: status %d, want 200 (replayed job or store hit)", i, code)
		}
		v = waitJob(t, hs2.URL, v.ID)
		if v.Status != StatusDone {
			t.Fatalf("replayed job %d: status %q error %q", i, v.Status, v.Error)
		}
		if v.Fingerprint != fps[i] {
			t.Errorf("job %d fingerprint drifted across restart: %s vs %s", i, v.Fingerprint, fps[i])
		}
		key := fmt.Sprintf("%s/%d", req.Config, req.Budget)
		if got := statsJSON(t, v); got != want[key] {
			t.Errorf("job %d (%s) not bit-identical to uninterrupted run:\n got %s\nwant %s", i, key, got, want[key])
		}
	}
	// The exactly-once witness across the restart: only the unfinished
	// fingerprints were simulated again.
	if got := metricValue(t, hs2.URL, "ctcpd_runner_started_total"); got != float64(replayed) {
		t.Errorf("ctcpd_runner_started_total = %v after restart, want %d (completed fingerprints must not resimulate)", got, replayed)
	}
	// The journal settles as replayed jobs finish; a third process over the
	// same directories owes nothing and starts empty.
	if got := metricValue(t, hs2.URL, "ctcpd_jobs_submitted_total"); got != float64(replayed) {
		t.Errorf("ctcpd_jobs_submitted_total = %v, want %d replayed acceptances", got, replayed)
	}
}

// TestServeFIFODispatch: with the only worker pinned, jobs queued behind it
// are dispatched strictly in submission order once it is released.
func TestServeFIFODispatch(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // never leave the worker pinned if an assertion bails early
	var calls atomic.Int64
	s.mu.Lock()
	s.testRunFn = func(prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error) {
		if calls.Add(1) == 1 {
			<-release // pin the only worker while the backlog builds
		}
		return &pipeline.Stats{Cycles: 1, Retired: 1}, nil
	}
	s.mu.Unlock()

	mk := func(extra uint64) Request {
		return Request{Benchmark: "gzip", Config: "base", Budget: testBudget + extra}
	}
	pin, code := submit[jobView](t, hs.URL, mk(0))
	if code != http.StatusAccepted {
		t.Fatalf("pin submit: status %d", code)
	}
	waitRunning(t, hs.URL, pin.ID)
	var queued []string
	for i, extra := range []uint64{128, 256, 512} {
		v, code := submit[jobView](t, hs.URL, mk(extra))
		if code != http.StatusAccepted {
			t.Fatalf("queued submit %d: status %d", i, code)
		}
		queued = append(queued, v.ID)
	}
	free()
	for _, id := range append([]string{pin.ID}, queued...) {
		if v := waitJob(t, hs.URL, id); v.Status != StatusDone {
			t.Fatalf("job %s: status %q error %q", id, v.Status, v.Error)
		}
	}
	begun := func(id string) time.Time {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[id].begun
	}
	for i := 1; i < len(queued); i++ {
		if prev, cur := begun(queued[i-1]), begun(queued[i]); !prev.Before(cur) {
			t.Errorf("dispatch order not FIFO: %s began at %v, not before %s (submitted later) at %v",
				queued[i-1], prev, queued[i], cur)
		}
	}
}

// TestServeReplaysLegacyJournal: a queue journal written before the service
// dropped a journal field still replays. The extra field is ignored, the job
// runs to done bit-identically to a direct run, and it counts as one
// acceptance.
func TestServeReplaysLegacyJournal(t *testing.T) {
	storeDir := t.TempDir()
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip benchmark missing")
	}
	base := experiment.StrategyConfigs()["base"]
	direct, err := experiment.NewRunner(experiment.Options{Budget: testBudget}).RunErr(bm, "base", base)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	hex := experiment.FormatFP(experiment.RunFingerprint(bm.Name, base, experiment.Options{Budget: testBudget}))
	line := fmt.Sprintf(`{"op":"accept","fp":%q,"tenant":"alpha","req":{"benchmark":"gzip","config":"base","budget":%d}}`, hex, testBudget)
	journal := snap.EncodeJournal([][]byte{[]byte(line)})
	if err := snap.WriteFileBytes(filepath.Join(storeDir, "queue.journal"), journal); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{Store: storeDir, Workers: 1})
	v, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base", Budget: testBudget})
	if code != http.StatusOK || v.Fingerprint != hex {
		t.Fatalf("submit: status %d fingerprint %s, want 200 joining the replayed job %s", code, v.Fingerprint, hex)
	}
	v = waitJob(t, hs.URL, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("replayed job: status %q error %q", v.Status, v.Error)
	}
	if got := statsJSON(t, v); got != string(want) {
		t.Errorf("replayed result differs from the direct run:\n got %s\nwant %s", got, want)
	}
	if got := metricValue(t, hs.URL, "ctcpd_jobs_submitted_total"); got != 1 {
		t.Errorf("ctcpd_jobs_submitted_total = %v, want 1", got)
	}
}

// readEvents consumes a job's SSE stream until the terminal event,
// returning the event types in order.
func readEvents(t *testing.T, base, id string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		events = append(events, ev)
		if terminalEvent(ev) {
			return events
		}
	}
	t.Fatalf("stream ended without a terminal event: %v (scan err %v)", events, sc.Err())
	return nil
}

// TestServeEventStream: the SSE endpoint carries the full lifecycle —
// queued, running, per-segment (checkpointed) or per-region (sampled)
// progress, terminal — and ends the stream at the terminal event.
func TestServeEventStream(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	ck, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base",
		Budget: testBudget, Checkpoint: true, CheckpointEvery: testEvery})
	if code != http.StatusAccepted {
		t.Fatalf("checkpointed submit: status %d", code)
	}
	waitJob(t, hs.URL, ck.ID)
	events := readEvents(t, hs.URL, ck.ID)
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type]++
		if ev.Job != ck.ID {
			t.Errorf("event for %q on %s's stream", ev.Job, ck.ID)
		}
	}
	if counts["queued"] != 1 || counts["running"] != 1 || counts[StatusDone] != 1 {
		t.Errorf("lifecycle events %v, want one queued, one running, one done", counts)
	}
	// The final segment finishes the run instead of checkpointing, so a
	// budget of N*every yields N-1 durable segment boundaries.
	wantSegments := int(testBudget/testEvery) - 1
	if counts["segment"] != wantSegments {
		t.Errorf("segment events = %d, want %d (budget/interval - 1)", counts["segment"], wantSegments)
	}
	last := events[len(events)-1]
	if last.Type != StatusDone {
		t.Errorf("stream ended on %q, want done", last.Type)
	}
	for _, ev := range events {
		if ev.Type == "segment" && (ev.Total != testBudget || ev.Done == 0 || ev.Done > ev.Total) {
			t.Errorf("segment event out of range: %+v", ev)
		}
	}

	sm, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base",
		Budget: testBudget, SampleInterval: testEvery, SampleDetail: 2000})
	if code != http.StatusAccepted {
		t.Fatalf("sampled submit: status %d", code)
	}
	waitJob(t, hs.URL, sm.ID)
	counts = map[string]int{}
	for _, ev := range readEvents(t, hs.URL, sm.ID) {
		counts[ev.Type]++
	}
	wantRegions := int(testBudget / testEvery)
	if counts["region"] != wantRegions {
		t.Errorf("region events = %d, want %d", counts["region"], wantRegions)
	}
}

// TestServeJobRetention: terminal jobs beyond RetainJobs are evicted from
// the in-memory index — the listing and job endpoints forget them — but
// their results remain addressable by fingerprint, and a resubmission is
// served from the store rather than resimulated.
func TestServeJobRetention(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, RetainJobs: 2})
	s.mu.Lock()
	s.testRunFn = func(prog *isa.Program, cfg pipeline.Config) (*pipeline.Stats, error) {
		return &pipeline.Stats{Cycles: 10, Retired: 10}, nil
	}
	s.mu.Unlock()

	var jobs []jobView
	for i := 0; i < 4; i++ {
		v, code := submit[jobView](t, hs.URL, Request{
			Benchmark: "gzip", Config: "base", Budget: testBudget + uint64(i)*128})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		jobs = append(jobs, waitJob(t, hs.URL, v.ID))
	}

	resp, err := http.Get(hs.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []jobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 2 || views[0].ID != jobs[2].ID || views[1].ID != jobs[3].ID {
		t.Fatalf("retained listing %+v, want exactly the last two jobs", views)
	}
	resp, err = http.Get(hs.URL + "/api/v1/jobs/" + jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job fetch: status %d, want 404", resp.StatusCode)
	}
	// The store, not the job index, is the system of record.
	resp, err = http.Get(hs.URL + "/api/v1/results/" + jobs[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("evicted job's result: status %d, want 200", resp.StatusCode)
	}
	v, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base", Budget: testBudget})
	if code != http.StatusOK || !v.Cached || v.Status != StatusDone {
		t.Errorf("evicted fingerprint resubmit: status %d cached=%v status=%q, want a store hit", code, v.Cached, v.Status)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 4 {
		t.Errorf("ctcpd_runner_started_total = %v, want 4 (store answers the resubmit)", got)
	}
}

// TestServeBatchSubmit: one request carries a whole sweep; rows dedup
// against each other and invalid rows fail individually without sinking
// the batch.
func TestServeBatchSubmit(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	payload := map[string]any{"jobs": []Request{
		{Benchmark: "gzip", Config: "base", Budget: testBudget},
		{Benchmark: "gzip", Config: "base", Budget: testBudget}, // duplicate row
		{Benchmark: "no-such-benchmark", Config: "base"},
		{Benchmark: "gzip", Config: "fdrt", Budget: testBudget},
	}}
	buf, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/api/v1/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Jobs []batchItem `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 4 {
		t.Fatalf("batch returned %d rows, want 4", len(out.Jobs))
	}
	if out.Jobs[0].Code != http.StatusAccepted {
		t.Errorf("row 0: code %d, want 202", out.Jobs[0].Code)
	}
	if out.Jobs[1].Code != http.StatusOK || out.Jobs[1].ID != out.Jobs[0].ID {
		t.Errorf("row 1 (duplicate): code %d id %s, want 200 joining %s", out.Jobs[1].Code, out.Jobs[1].ID, out.Jobs[0].ID)
	}
	if out.Jobs[2].Code != http.StatusBadRequest || out.Jobs[2].Error == "" {
		t.Errorf("row 2 (invalid): code %d error %q, want 400 with message", out.Jobs[2].Code, out.Jobs[2].Error)
	}
	if out.Jobs[3].Code != http.StatusAccepted {
		t.Errorf("row 3: code %d, want 202", out.Jobs[3].Code)
	}
	for _, row := range []batchItem{out.Jobs[0], out.Jobs[3]} {
		if v := waitJob(t, hs.URL, row.ID); v.Status != StatusDone {
			t.Errorf("batch job %s: status %q error %q", row.ID, v.Status, v.Error)
		}
	}
	if got := metricValue(t, hs.URL, "ctcpd_jobs_submitted_total"); got != 2 {
		t.Errorf("ctcpd_jobs_submitted_total = %v, want 2 distinct acceptances", got)
	}
}
