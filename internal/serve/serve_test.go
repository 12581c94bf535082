package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ctcp/internal/experiment"
	"ctcp/internal/workload"
)

const (
	testBudget uint64 = 20_000
	testEvery  uint64 = 5_000
)

// newTestServer starts a Server over fresh (or given) directories and an
// httptest front end, and tears both down at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == "" {
		cfg.Store = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, hs
}

// submit POSTs a job request and decodes the response body as T.
func submit[T any](t *testing.T, base string, req Request) (T, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return out, resp.StatusCode
}

// waitJob long-polls a job until it reaches a terminal status.
func waitJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusInterrupted:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %q", id, v.Status)
		}
	}
}

// metricValue fetches /metrics and returns the value of one sample line.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s has non-numeric value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body.String())
	return 0
}

// statsJSON canonicalizes a job's stats for bit-identity comparison.
func statsJSON(t *testing.T, v jobView) string {
	t.Helper()
	if v.Stats == nil {
		t.Fatalf("job %s has no stats (status %q, error %q)", v.ID, v.Status, v.Error)
	}
	buf, err := json.Marshal(v.Stats)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return string(buf)
}

// TestServeExactlyOnce is the headline dedup property: many concurrent
// submissions of one fingerprint cost exactly one simulation, observable
// from the outside via /metrics.
func TestServeExactlyOnce(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4})
	req := Request{Benchmark: "gzip", Config: "base", Budget: testBudget}

	const callers = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		ids      = map[string]bool{}
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, code := submit[jobView](t, hs.URL, req)
			mu.Lock()
			defer mu.Unlock()
			switch code {
			case http.StatusAccepted:
				accepted++
			case http.StatusOK:
			default:
				t.Errorf("unexpected status %d", code)
			}
			ids[v.ID] = true
		}()
	}
	wg.Wait()
	if accepted != 1 {
		t.Errorf("got %d accepted (202) submissions, want exactly 1", accepted)
	}
	if len(ids) != 1 {
		t.Errorf("concurrent duplicate submissions produced %d jobs, want 1: %v", len(ids), ids)
	}
	var id string
	for k := range ids {
		id = k
	}
	v := waitJob(t, hs.URL, id)
	if v.Status != StatusDone {
		t.Fatalf("job status %q, error %q", v.Status, v.Error)
	}
	if v.Stats.Retired != testBudget {
		t.Errorf("retired %d, want %d", v.Stats.Retired, testBudget)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 1 {
		t.Errorf("ctcpd_runner_started_total = %v, want 1", got)
	}
	if got := metricValue(t, hs.URL, "ctcpd_store_writes_total"); got != 1 {
		t.Errorf("ctcpd_store_writes_total = %v, want 1", got)
	}

	// A late submission of the same job is answered by the completed job.
	v2, code := submit[jobView](t, hs.URL, req)
	if code != http.StatusOK || v2.ID != id {
		t.Errorf("resubmit: status %d job %s, want 200 for %s", code, v2.ID, id)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 1 {
		t.Errorf("after resubmit, ctcpd_runner_started_total = %v, want 1", got)
	}

	// The result is also addressable directly by fingerprint.
	resp, err := http.Get(hs.URL + "/api/v1/results/" + v.Fingerprint)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result status %d", resp.StatusCode)
	}
	var rec experiment.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decode record: %v", err)
	}
	if rec.Fingerprint != v.Fingerprint || rec.Benchmark != "gzip" || rec.Budget != testBudget {
		t.Errorf("record mismatch: %+v", rec)
	}
}

// TestServeRestartServesFromStore proves the store survives the process: a
// fresh Server over the same directory answers a repeated request without
// simulating, bit-identically to the original run.
func TestServeRestartServesFromStore(t *testing.T) {
	storeDir := t.TempDir()
	req := Request{Benchmark: "gzip", Config: "fdrt", Budget: testBudget}

	s1, err := New(Config{Store: storeDir, Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs1 := httptest.NewServer(s1)
	v1, code := submit[jobView](t, hs1.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	v1 = waitJob(t, hs1.URL, v1.ID)
	if v1.Status != StatusDone {
		t.Fatalf("first run: status %q error %q", v1.Status, v1.Error)
	}
	want := statsJSON(t, v1)
	hs1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// "Restart": a brand-new process image over the same store.
	_, hs2 := newTestServer(t, Config{Store: storeDir, Workers: 2})
	v2, code := submit[jobView](t, hs2.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-restart submit: status %d, want 200 (store hit)", code)
	}
	if !v2.Cached || v2.Status != StatusDone {
		t.Fatalf("post-restart job not served from store: cached=%v status=%q", v2.Cached, v2.Status)
	}
	if got := statsJSON(t, v2); got != want {
		t.Errorf("restart result is not bit-identical:\n got %s\nwant %s", got, want)
	}
	if got := metricValue(t, hs2.URL, "ctcpd_runner_started_total"); got != 0 {
		t.Errorf("restarted server simulated anyway: ctcpd_runner_started_total = %v", got)
	}
	if got := metricValue(t, hs2.URL, "ctcpd_store_hits_total"); got != 1 {
		t.Errorf("ctcpd_store_hits_total = %v, want 1", got)
	}
}

// TestServeBudgetChangeResimulates: a changed budget is a different
// fingerprint, so the stale result must not be served.
func TestServeBudgetChangeResimulates(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	v1, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base", Budget: testBudget})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	v1 = waitJob(t, hs.URL, v1.ID)
	if v1.Status != StatusDone || v1.Stats.Retired != testBudget {
		t.Fatalf("first run: %+v", v1)
	}

	v2, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base", Budget: 2 * testBudget})
	if code != http.StatusAccepted {
		t.Fatalf("changed-budget submit: status %d, want 202 (fresh simulation)", code)
	}
	if v2.Fingerprint == v1.Fingerprint {
		t.Fatalf("budget change did not change the fingerprint %s", v1.Fingerprint)
	}
	v2 = waitJob(t, hs.URL, v2.ID)
	if v2.Status != StatusDone {
		t.Fatalf("second run: status %q error %q", v2.Status, v2.Error)
	}
	if v2.Stats.Retired != 2*testBudget {
		t.Errorf("changed-budget run retired %d, want %d — served a stale result", v2.Stats.Retired, 2*testBudget)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 2 {
		t.Errorf("ctcpd_runner_started_total = %v, want 2", got)
	}
}

// TestServeCheckpointRestartMatchesDirect: a checkpointed job submitted to a
// server that is immediately shut down can be completed by a successor
// server over the same directories, and the result matches an uninterrupted
// direct runner execution bit-for-bit — regardless of how far the first
// server got.
func TestServeCheckpointRestartMatchesDirect(t *testing.T) {
	storeDir := t.TempDir()
	req := Request{Benchmark: "gzip", Config: "base", Budget: testBudget,
		Checkpoint: true, CheckpointEvery: testEvery}

	// Reference: the same run executed directly, uninterrupted.
	refRunner := experiment.NewRunner(experiment.Options{
		Budget: testBudget, CheckpointDir: t.TempDir(), CheckpointEvery: testEvery,
	})
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip benchmark missing")
	}
	refStats, err := refRunner.RunErr(bm, "base", experiment.StrategyConfigs()["base"])
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want, err := json.Marshal(refStats)
	if err != nil {
		t.Fatal(err)
	}

	s1, err := New(Config{Store: storeDir, Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs1 := httptest.NewServer(s1)
	if _, code := submit[jobView](t, hs1.URL, req); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Shut down immediately: the job is either still queued (resolved as
	// interrupted by the drain), interrupted between segments (newest
	// checkpoint on disk), or already done (store record on disk).
	// All three must converge to the same bits on the successor.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	hs1.Close()

	_, hs2 := newTestServer(t, Config{Store: storeDir, Workers: 1})
	v, _ := submit[jobView](t, hs2.URL, req)
	v = waitJob(t, hs2.URL, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("successor run: status %q error %q", v.Status, v.Error)
	}
	if got := statsJSON(t, v); got != string(want) {
		t.Errorf("resumed result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	// The completed job leaves just its record: no checkpoint, no second copy.
	if names, _ := filepath.Glob(filepath.Join(storeDir, v.Fingerprint+".*")); len(names) != 1 || filepath.Ext(names[0]) != ".json" {
		t.Errorf("store files for %s = %v, want just the .json record", v.Fingerprint, names)
	}
}

// TestServeAnswersResumeDirectoryStore: a ctcpbench -resume directory and a
// ctcpd store are the same thing. A checkpointed runner fills a directory;
// a server opened over it answers the equivalent checkpointed request from
// the store, bit-identically, without simulating.
func TestServeAnswersResumeDirectoryStore(t *testing.T) {
	dir := t.TempDir()
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip benchmark missing")
	}
	direct, err := experiment.NewRunner(experiment.Options{
		Budget: testBudget, CheckpointDir: dir, CheckpointEvery: testEvery,
	}).RunErr(bm, "base", experiment.StrategyConfigs()["base"])
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{Store: dir, Workers: 1})
	v, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base",
		Budget: testBudget, Checkpoint: true, CheckpointEvery: testEvery})
	if code != http.StatusOK || !v.Cached || v.Status != StatusDone {
		t.Fatalf("submit: status %d cached=%v job status %q, want 200 from the store", code, v.Cached, v.Status)
	}
	if got := statsJSON(t, v); got != string(want) {
		t.Errorf("served stats differ from the direct run:\n got %s\nwant %s", got, want)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 0 {
		t.Errorf("ctcpd_runner_started_total = %v, want 0", got)
	}
}

// waitRunning polls a job until it leaves the queue.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if v.Status != StatusQueued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeBackpressure: with one worker and a one-deep queue, a third job
// must bounce with 429 rather than queue unboundedly. The worker is pinned
// by a deliberately huge checkpointed run; shutdown cuts it off at the next
// segment boundary, so the test never pays for the full budget.
func TestServeBackpressure(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	big, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base",
		Budget: 50_000_000, Checkpoint: true, CheckpointEvery: testEvery})
	if code != http.StatusAccepted {
		t.Fatalf("big submit: status %d", code)
	}
	waitRunning(t, hs.URL, big.ID)
	// The only worker is now busy: one more job fits the queue, the next
	// distinct one must bounce.
	if _, code := submit[jobView](t, hs.URL, Request{
		Benchmark: "gzip", Config: "base", Budget: testBudget,
	}); code != http.StatusAccepted {
		t.Fatalf("queued submit: status %d, want 202", code)
	}
	body, code := submit[map[string]string](t, hs.URL, Request{
		Benchmark: "gzip", Config: "base", Budget: testBudget + 64,
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", code)
	}
	if body["error"] == "" {
		t.Error("429 response carries no error message")
	}
	if got := metricValue(t, hs.URL, "ctcpd_jobs_rejected_total"); got != 1 {
		t.Errorf("ctcpd_jobs_rejected_total = %v, want 1", got)
	}
	if got := metricValue(t, hs.URL, "ctcpd_queue_depth"); got != 1 {
		t.Errorf("ctcpd_queue_depth = %v, want 1", got)
	}
}

// TestServeValidation: malformed submissions are 400s with a JSON error.
func TestServeValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	cases := []Request{
		{Benchmark: "no-such-benchmark", Config: "base"},
		{Benchmark: "gzip", Config: "no-such-config"},
		{Benchmark: "gzip", Config: "base", SampleInterval: 1000, Checkpoint: true},
	}
	for _, req := range cases {
		body, code := submit[map[string]string](t, hs.URL, req)
		if code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, code)
		}
		if body["error"] == "" {
			t.Errorf("%+v: no error message in response", req)
		}
	}

	resp, err := http.Get(hs.URL + "/api/v1/results/not-hex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fingerprint: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/api/v1/results/00000000deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/api/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServeSampledJob: sampled mode round-trips through the service, and its
// fingerprint is distinct from the full-detail run of the same workload.
func TestServeSampledJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	full, code := submit[jobView](t, hs.URL, Request{Benchmark: "gzip", Config: "base", Budget: testBudget})
	if code != http.StatusAccepted {
		t.Fatalf("full submit: %d", code)
	}
	sampled, code := submit[jobView](t, hs.URL, Request{
		Benchmark: "gzip", Config: "base", Budget: testBudget,
		SampleInterval: testEvery, SampleDetail: 2000, SampleWarmup: 500,
	})
	if code != http.StatusAccepted {
		t.Fatalf("sampled submit: %d", code)
	}
	if sampled.Fingerprint == full.Fingerprint {
		t.Error("sampled and full runs share a fingerprint")
	}
	sv := waitJob(t, hs.URL, sampled.ID)
	if sv.Status != StatusDone {
		t.Fatalf("sampled run: status %q error %q", sv.Status, sv.Error)
	}
	if sv.Mode != "sampled" {
		t.Errorf("mode %q, want sampled", sv.Mode)
	}
	if sv.Stats.Retired != testBudget {
		t.Errorf("sampled estimate covers %d insts, want %d", sv.Stats.Retired, testBudget)
	}
	waitJob(t, hs.URL, full.ID)
}

// TestServeListJobs: the listing includes every job in submission order.
func TestServeListJobs(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		v, _ := submit[jobView](t, hs.URL, Request{
			Benchmark: "gzip", Config: "base", Budget: testBudget + uint64(i)*128,
		})
		ids = append(ids, v.ID)
	}
	resp, err := http.Get(hs.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []jobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(views), len(ids))
	}
	for i, v := range views {
		if v.ID != ids[i] {
			t.Errorf("position %d: job %s, want %s", i, v.ID, ids[i])
		}
	}
	for _, id := range ids {
		waitJob(t, hs.URL, id)
	}
}
