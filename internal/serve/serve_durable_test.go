package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

	// Restart over the same store (checkpoints and accepted jobs included).
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
	// Each replayed job removes its <fp>.req as it settles; a third process
	// over the same directory owes nothing and starts empty.
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

// directRun is the reference for a replayed job: the same request run
// directly, uninterrupted, as stats JSON.
func directRun(t *testing.T, req Request) string {
	t.Helper()
	bm, ok := workload.ByName(req.Benchmark)
	if !ok {
		t.Fatalf("benchmark %q missing", req.Benchmark)
	}
	stats, err := experiment.NewRunner(experiment.Options{Budget: req.Budget}).RunErr(bm, req.Config, experiment.StrategyConfigs()[req.Config])
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	buf, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// fpOf is the fingerprint a server gives req (whose budget is set).
func fpOf(req Request) string {
	bm, _ := workload.ByName(req.Benchmark)
	opts := experiment.Options{Budget: req.Budget}
	if req.Checkpoint {
		opts.CheckpointDir, opts.CheckpointEvery = "store", req.CheckpointEvery
	}
	return experiment.FormatFP(experiment.RunFingerprint(bm.Name, experiment.StrategyConfigs()[req.Config], opts))
}

// reqFiles lists the fingerprints of the <fp>.req files in dir.
func reqFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.req"))
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, p := range paths {
		fps = append(fps, strings.TrimSuffix(filepath.Base(p), ".req"))
	}
	return fps
}

// TestServeRefusesQueueJournal: a store still holding a queue journal from
// an older ctcpd is refused, naming the file, instead of being half-read.
func TestServeRefusesQueueJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.journal")
	if err := os.WriteFile(path, []byte("0000000000000000 {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: dir, Workers: 1})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("New accepted a store holding queue.journal")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name %s", err, path)
	}
}

// TestServeDropsAnsweredRequest is the crash window between a job's record
// Put and the removal of its <fp>.req: the restart finds both, deletes the
// acceptance, and simulates nothing.
func TestServeDropsAnsweredRequest(t *testing.T) {
	dir := t.TempDir()
	req := Request{Benchmark: "gzip", Config: "base", Budget: testBudget}
	hex := fpOf(req)
	st, err := experiment.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&experiment.Record{Fingerprint: hex, Benchmark: req.Benchmark, Config: req.Config,
		Budget: req.Budget, Mode: "full", Stats: &pipeline.Stats{Cycles: 77, Retired: testBudget}}); err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(acceptance{Seq: 3, Request: req})
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteFileBytes(filepath.Join(dir, hex+".req"), buf); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{Store: dir, Workers: 1})
	if left := reqFiles(t, dir); len(left) != 0 {
		t.Errorf("after New: %v still accepted, want the answered acceptance deleted", left)
	}
	v, code := submit[jobView](t, hs.URL, req)
	if code != http.StatusOK || !v.Cached || v.Stats == nil || v.Stats.Cycles != 77 {
		t.Errorf("resubmit: status %d cached=%v stats %+v, want the stored record", code, v.Cached, v.Stats)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 0 {
		t.Errorf("ctcpd_runner_started_total = %v, want 0", got)
	}
}

// TestServeReplaysHandWrittenRequest is the crash window after the 202 and
// before the job ran: a <fp>.req with no record runs exactly once,
// bit-identical to a direct run, and is gone once the job settles. The job
// sequence resumes above the acceptance's, and the .req file is no record
// or name to the store.
func TestServeReplaysHandWrittenRequest(t *testing.T) {
	dir := t.TempDir()
	req := Request{Benchmark: "gzip", Config: "base", Budget: testBudget}
	want := directRun(t, req)
	hex := fpOf(req)
	body := fmt.Sprintf(`{"seq":7,"req":{"benchmark":"gzip","config":"base","budget":%d}}`, testBudget)
	if err := os.WriteFile(filepath.Join(dir, hex+".req"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := experiment.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 0 {
		t.Errorf("Store.Len = %d with only a .req on disk, want 0", n)
	}
	if names, err := experiment.Names(st); err != nil || len(names) != 0 {
		t.Errorf("Names = %v, %v with only a .req on disk, want none", names, err)
	}

	_, hs := newTestServer(t, Config{Store: dir, Workers: 1})
	v, code := submit[jobView](t, hs.URL, req)
	if code != http.StatusOK || v.Fingerprint != hex {
		t.Fatalf("submit: status %d fingerprint %s, want 200 joining the replayed job %s", code, v.Fingerprint, hex)
	}
	if v.ID != "job-8" {
		t.Errorf("replayed job is %s, want job-8 (numbering resumes above seq 7)", v.ID)
	}
	v = waitJob(t, hs.URL, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("replayed job: status %q error %q", v.Status, v.Error)
	}
	if got := statsJSON(t, v); got != want {
		t.Errorf("replayed result differs from the direct run:\n got %s\nwant %s", got, want)
	}
	if left := reqFiles(t, dir); len(left) != 0 {
		t.Errorf("after settling: %v still accepted", left)
	}
	if got := metricValue(t, hs.URL, "ctcpd_runner_started_total"); got != 1 {
		t.Errorf("ctcpd_runner_started_total = %v, want 1", got)
	}
	if got := metricValue(t, hs.URL, "ctcpd_jobs_submitted_total"); got != 1 {
		t.Errorf("ctcpd_jobs_submitted_total = %v, want 1", got)
	}
	if n := st.Len(); n != 1 {
		t.Errorf("Store.Len = %d after the job, want 1", n)
	}
}

// TestServeIgnoresTornRequest is the crash window inside the .req write: a
// temp file that was never renamed was never an acceptance (the client got
// no 202), even when its contents are complete, so the restart neither
// replays nor counts it, and leaves it alone.
func TestServeIgnoresTornRequest(t *testing.T) {
	dir := t.TempDir()
	hex := fpOf(Request{Benchmark: "gzip", Config: "base", Budget: testBudget})
	torn := filepath.Join(dir, hex+".req.tmp123456")
	body := fmt.Sprintf(`{"seq":1,"req":{"benchmark":"gzip","config":"base","budget":%d}}`, testBudget)
	if err := os.WriteFile(torn, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{Store: dir, Workers: 1})
	s.mu.Lock()
	queued := len(s.queue)
	s.mu.Unlock()
	if queued != 0 {
		t.Errorf("%d jobs queued from a torn write, want 0", queued)
	}
	for _, name := range []string{"ctcpd_jobs_submitted_total", "ctcpd_runner_started_total"} {
		if got := metricValue(t, hs.URL, name); got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
	if _, err := os.Stat(torn); err != nil {
		t.Errorf("the torn write was touched: %v", err)
	}
}

// TestServeFIFOAcrossRestarts: jobs queued at one shutdown and jobs the
// next process accepts behind them are dispatched, by a third process, in
// original acceptance order. Each process pins its only worker with the same
// long checkpointed run, which shutdown interrupts at a segment boundary
// and the third process finishes.
func TestServeFIFOAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	pin := Request{Benchmark: "gzip", Config: "base", Budget: 500_000,
		Checkpoint: true, CheckpointEvery: testEvery}
	mk := func(extra uint64) Request {
		return Request{Benchmark: "gzip", Config: "base", Budget: testBudget + extra}
	}
	first := []Request{mk(128), mk(256), mk(512)}
	second := []Request{mk(1024), mk(2048)}
	order := append(append([]Request{pin}, first...), second...)

	// start runs one process over dir: it submits reqs (the pin first, if
	// given, waiting until it occupies the worker) and shuts down with the
	// rest still queued.
	start := func(reqs []Request, pinned bool) {
		t.Helper()
		s, err := New(Config{Store: dir, Workers: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		hs := httptest.NewServer(s)
		defer hs.Close()
		if pinned {
			v, code := submit[jobView](t, hs.URL, pin)
			if code != http.StatusAccepted {
				t.Fatalf("pin submit: status %d", code)
			}
			waitRunning(t, hs.URL, v.ID)
		}
		for i, req := range reqs {
			if _, code := submit[jobView](t, hs.URL, req); code != http.StatusAccepted {
				t.Fatalf("submit %d: status %d, want 202", i, code)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if got := metricValue(t, hs.URL, "ctcpd_jobs_completed_total"); got != 0 {
			t.Fatalf("ctcpd_jobs_completed_total = %v, want 0 (the pin must hold the worker until shutdown)", got)
		}
	}
	start(first, true)
	start(second, false) // the replayed pin holds the worker this time

	var want []string
	for _, req := range order {
		want = append(want, fpOf(req))
	}
	got := reqFiles(t, dir)
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if !slices.Equal(got, sorted) {
		t.Fatalf("accepted jobs on disk %v, want %v", got, sorted)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".json", ".ckpt", ".name", ".req":
		default:
			t.Errorf("store holds %s, outside its four file kinds", e.Name())
		}
	}

	s, hs := newTestServer(t, Config{Store: dir, Workers: 1})
	var begun []time.Time
	for i, req := range order {
		v, code := submit[jobView](t, hs.URL, req)
		if code != http.StatusOK || v.Fingerprint != want[i] {
			t.Fatalf("submit %d: status %d fingerprint %s, want 200 joining replayed %s", i, code, v.Fingerprint, want[i])
		}
		if v = waitJob(t, hs.URL, v.ID); v.Status != StatusDone {
			t.Fatalf("job %d: status %q error %q", i, v.Status, v.Error)
		}
		s.mu.Lock()
		begun = append(begun, s.jobs[v.ID].begun)
		s.mu.Unlock()
	}
	for i := 1; i < len(begun); i++ {
		if !begun[i-1].Before(begun[i]) {
			t.Errorf("dispatch order not FIFO: acceptance %d began at %v, not before acceptance %d at %v",
				i-1, begun[i-1], i, begun[i])
		}
	}
	if left := reqFiles(t, dir); len(left) != 0 {
		t.Errorf("after every job settled: %v still accepted", left)
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
