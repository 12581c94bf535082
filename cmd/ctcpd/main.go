// Command ctcpd runs (and talks to) the fingerprint-keyed simulation
// service.
//
// Usage:
//
//	ctcpd -serve -store results/                      # start the service (loopback only)
//	ctcpd -submit -bm gzip -config fdrt               # submit one job
//	ctcpd -submit ... -timeout 2m                     # ...and wait for the result
//	ctcpd -submit ... -checkpoint                     # resumable run; shutdown drains losslessly
//	ctcpd -batch sweep.json                           # submit a whole sweep
//	ctcpd -wait job-3                                 # wait for an earlier job
//	ctcpd -watch job-3                                # stream its progress events
//
// A submitted job is identified by its run fingerprint (benchmark + full
// config + budget + mode): duplicates join the in-flight job, repeats are
// answered from the server's result store — across restarts — without
// resimulating. Acceptances are journaled, so jobs queued (or interrupted)
// at shutdown are replayed by the next start on the same -store/-journal.
// SIGINT/SIGTERM drain the server: in-flight checkpointed runs stop at the
// next segment boundary and resume bit-exactly on restart. Their checkpoints
// live in the -store directory, which has the same layout as a ctcpbench
// -resume directory or a ctcpsim -store directory: each tool answers from,
// or resumes, what the others simulated.
// The service has no authentication; the default -addr binds the loopback
// interface only.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ctcp/internal/serve"
)

// cliOptions collects every parsed flag.
type cliOptions struct {
	serveMode bool
	submit    bool
	batchPath string
	waitID    string
	watchID   string
	addr      string

	// -serve
	storeDir string
	journal  string
	retain   int
	workers  int
	queue    int
	drain    time.Duration

	// -submit
	bm             string
	config         string
	insts          uint64
	sampleInterval uint64
	sampleDetail   uint64
	sampleWarmup   uint64
	checkpoint     bool
	ckptEvery      uint64

	// -submit / -wait
	timeout time.Duration
}

func (o *cliOptions) validate() error {
	modes := 0
	for _, on := range []bool{o.serveMode, o.submit, o.batchPath != "", o.waitID != "", o.watchID != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -serve, -submit, -batch, -wait, -watch is required")
	}
	if o.serveMode && o.storeDir == "" {
		return fmt.Errorf("-serve requires -store <dir>")
	}
	if o.submit && (o.bm == "" || o.config == "") {
		return fmt.Errorf("-submit requires -bm and -config")
	}
	return nil
}

func main() {
	var o cliOptions
	flag.BoolVar(&o.serveMode, "serve", false, "run the simulation service")
	flag.BoolVar(&o.submit, "submit", false, "submit one job to a running service")
	flag.StringVar(&o.batchPath, "batch", "", "submit a batch: JSON file of requests (\"-\" = stdin)")
	flag.StringVar(&o.waitID, "wait", "", "wait for the given job ID to finish and print its result")
	flag.StringVar(&o.watchID, "watch", "", "stream the given job's progress events until it finishes")
	flag.StringVar(&o.addr, "addr", "localhost:8321", "listen address (-serve) or server address (client verbs)")
	flag.StringVar(&o.storeDir, "store", "", "result-store directory, also holding checkpointed jobs' checkpoints (required with -serve)")
	flag.StringVar(&o.journal, "journal", "", "durable queue journal path (default <store>/queue.journal)")
	flag.IntVar(&o.retain, "retain", 0, "terminal jobs kept listable in memory (0 = 512); results persist in the store")
	flag.IntVar(&o.workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "accepted-but-not-running job bound; overflow is rejected with 429 (0 = 64)")
	flag.DurationVar(&o.drain, "drain", 60*time.Second, "shutdown drain budget for in-flight simulations")
	flag.StringVar(&o.bm, "bm", "", "benchmark name to submit")
	flag.StringVar(&o.config, "config", "", "strategy configuration name to submit")
	flag.Uint64Var(&o.insts, "insts", 0, "committed instruction budget (0 = server default)")
	flag.Uint64Var(&o.sampleInterval, "sample", 0, "sampled simulation: region interval (0 = full detail)")
	flag.Uint64Var(&o.sampleDetail, "sample-detail", 0, "instructions simulated in detail per region")
	flag.Uint64Var(&o.sampleWarmup, "sample-warmup", 0, "warmup instructions per region")
	flag.BoolVar(&o.checkpoint, "checkpoint", false, "request a checkpoint-segmented run, resumable across server restarts")
	flag.Uint64Var(&o.ckptEvery, "checkpoint-every", 0, "instructions between checkpoints (0 = budget/4)")
	flag.DurationVar(&o.timeout, "timeout", 0, "how long -submit/-wait block for the result (0: -submit returns immediately, -wait blocks forever)")
	flag.Parse()
	os.Exit(run(&o))
}

func run(o *cliOptions) int {
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: %v\n", err)
		return 2
	}
	switch {
	case o.serveMode:
		return runServe(o)
	case o.submit:
		return runSubmit(o)
	case o.batchPath != "":
		return runBatch(o)
	case o.watchID != "":
		return runWatch(o, o.watchID)
	default:
		return runWait(o, o.waitID)
	}
}

// runServe hosts the service until SIGINT/SIGTERM, then drains: the HTTP
// front end stops accepting, queued jobs resolve as interrupted (their
// journal entries survive for the next start to replay), and in-flight
// checkpointed runs stop at their next segment boundary with the newest
// checkpoint on disk.
func runServe(o *cliOptions) int {
	logger := log.New(os.Stderr, "ctcpd: ", log.LstdFlags)
	s, err := serve.New(serve.Config{
		Store:         o.storeDir,
		Journal:       o.journal,
		RetainJobs:    o.retain,
		QueueDepth:    o.queue,
		Workers:       o.workers,
		DefaultBudget: o.insts,
		Logf:          logger.Printf,
	})
	if err != nil {
		logger.Printf("%v", err)
		return 1
	}
	srv := &http.Server{Addr: o.addr, Handler: s}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.ListenAndServe() }()
	logger.Printf("listening on %s (store %s)", o.addr, o.storeDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-httpErr:
		logger.Printf("http server: %v", err)
		return 1
	case got := <-sig:
		logger.Printf("%v: draining (budget %v)", got, o.drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		return 1
	}
	logger.Printf("drained")
	return 0
}

// jobResp mirrors the service's job JSON; Stats stays raw so the client
// reprints exactly what the server sent.
type jobResp struct {
	ID          string          `json:"id"`
	Fingerprint string          `json:"fingerprint"`
	Status      string          `json:"status"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error"`
	Stats       json.RawMessage `json:"stats"`
}

func terminal(status string) bool {
	switch status {
	case serve.StatusDone, serve.StatusFailed, serve.StatusInterrupted:
		return true
	}
	return false
}

// baseURL normalizes -addr into an http URL.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// do issues one API call.
func do(method, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return http.DefaultClient.Do(req)
}

func runSubmit(o *cliOptions) int {
	body, err := json.Marshal(serve.Request{
		Benchmark:       o.bm,
		Config:          o.config,
		Budget:          o.insts,
		SampleInterval:  o.sampleInterval,
		SampleDetail:    o.sampleDetail,
		SampleWarmup:    o.sampleWarmup,
		Checkpoint:      o.checkpoint,
		CheckpointEvery: o.ckptEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: %v\n", err)
		return 1
	}
	resp, err := do(http.MethodPost, baseURL(o.addr)+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: submit: %v\n", err)
		return 1
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: reading response: %v\n", err)
		return 1
	}
	if resp.StatusCode >= 400 {
		fmt.Fprintf(os.Stderr, "ctcpd: submit rejected (%s): %s\n", resp.Status, strings.TrimSpace(string(raw)))
		return 1
	}
	var j jobResp
	if err := json.Unmarshal(raw, &j); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: decoding response: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "ctcpd: job %s fingerprint %s status %s\n", j.ID, j.Fingerprint, j.Status)
	if terminal(j.Status) || o.timeout == 0 {
		fmt.Printf("%s\n", raw)
		return exitFor(j)
	}
	return runWait(o, j.ID)
}

// runBatch submits a whole sweep in one request. The input file (or stdin
// with "-") is a JSON array of request objects — the same shape -submit
// builds — and the per-row outcomes print as JSON on stdout. The exit code
// is 0 only if every row was accepted or answered.
func runBatch(o *cliOptions) int {
	var raw []byte
	var err error
	if o.batchPath == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(o.batchPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: batch: %v\n", err)
		return 1
	}
	var reqs []serve.Request
	if err := json.Unmarshal(raw, &reqs); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: batch: decoding %s: %v\n", o.batchPath, err)
		return 1
	}
	body, err := json.Marshal(map[string]any{"jobs": reqs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: batch: %v\n", err)
		return 1
	}
	resp, err := do(http.MethodPost, baseURL(o.addr)+"/api/v1/batch", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: batch: %v\n", err)
		return 1
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: reading response: %v\n", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "ctcpd: batch rejected (%s): %s\n", resp.Status, strings.TrimSpace(string(out)))
		return 1
	}
	fmt.Printf("%s\n", out)
	var parsed struct {
		Jobs []struct {
			ID    string `json:"id"`
			Code  int    `json:"code"`
			Error string `json:"error"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(out, &parsed); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: decoding response: %v\n", err)
		return 1
	}
	code := 0
	for i, item := range parsed.Jobs {
		if item.Error != "" {
			fmt.Fprintf(os.Stderr, "ctcpd: batch row %d rejected (%d): %s\n", i, item.Code, item.Error)
			code = 1
		}
	}
	return code
}

// runWatch streams a job's server-sent events to stdout, one JSON object
// per line, until the job reaches a terminal status.
func runWatch(o *cliOptions, id string) int {
	resp, err := do(http.MethodGet, baseURL(o.addr)+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: watch: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "ctcpd: watch (%s): %s\n", resp.Status, strings.TrimSpace(string(raw)))
		return 1
	}
	code := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // "event:" lines and blank separators
		}
		fmt.Println(data)
		var ev struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if json.Unmarshal([]byte(data), &ev) == nil && terminal(ev.Type) {
			if ev.Type != serve.StatusDone {
				code = 1
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "ctcpd: watch: %v\n", err)
		return 1
	}
	return code
}

// runWait long-polls a job until it reaches a terminal status (or -timeout
// elapses) and prints the final job JSON on stdout.
func runWait(o *cliOptions, id string) int {
	var deadline time.Time
	if o.timeout > 0 {
		deadline = time.Now().Add(o.timeout)
	}
	url := baseURL(o.addr) + "/api/v1/jobs/" + id + "?wait=10s"
	for {
		resp, err := do(http.MethodGet, url, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctcpd: wait: %v\n", err)
			return 1
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctcpd: reading response: %v\n", err)
			return 1
		}
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "ctcpd: wait (%s): %s\n", resp.Status, strings.TrimSpace(string(raw)))
			return 1
		}
		var j jobResp
		if err := json.Unmarshal(raw, &j); err != nil {
			fmt.Fprintf(os.Stderr, "ctcpd: decoding response: %v\n", err)
			return 1
		}
		if terminal(j.Status) {
			fmt.Printf("%s\n", raw)
			return exitFor(j)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "ctcpd: job %s still %s after %v\n", id, j.Status, o.timeout)
			return 1
		}
	}
}

// exitFor maps a terminal job status to the process exit code.
func exitFor(j jobResp) int {
	switch j.Status {
	case serve.StatusFailed, serve.StatusInterrupted:
		fmt.Fprintf(os.Stderr, "ctcpd: job %s %s: %s\n", j.ID, j.Status, j.Error)
		return 1
	}
	return 0
}
