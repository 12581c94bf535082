package serve

import (
	"fmt"
	"net/http"
	"strings"

	"ctcp/internal/experiment"
)

// latencyBounds are the histogram bucket upper bounds (seconds) shared by
// the queue-latency and sim-latency histograms: sub-millisecond cache-ish
// waits through multi-minute full-detail simulations.
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 5, 30, 120}

// histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative-bucket style. Guarded by the owning Server's mutex.
type histogram struct {
	counts []uint64 // len(latencyBounds)+1; last bucket is +Inf
	sum    float64
	n      uint64
}

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(latencyBounds)+1)
	}
	i := 0
	for i < len(latencyBounds) && v > latencyBounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// snapshot deep-copies the histogram so rendering can happen off the lock.
func (h *histogram) snapshot() histogram {
	cp := *h
	cp.counts = append([]uint64(nil), h.counts...)
	return cp
}

// tenantMetrics is one tenant's counter row in /metrics.
type tenantMetrics struct {
	name                                      string
	submitted, completed, failed, interrupted uint64
	rejected, throttled, storeHits            uint64
	active, queued                            int
}

// metricsSnapshot is one consistent read of every counter /metrics exposes:
// the service-level job counters, the queue gauge, per-tenant rows, latency
// histograms, and the pooled runners' execution counters summed into one
// view. The runner sums are the exactly-once witness: after any number of
// duplicate submissions of one job — or a restart over a journal of
// completed fingerprints — runner.started stays 1.
type metricsSnapshot struct {
	submitted, completed, failed, interrupted, rejected, storeHits uint64
	throttled, unauthorized                                        uint64
	queueDepth, queueCap                                           int
	queueWaitSeconds, simSeconds                                   float64
	queueWaitN, simN                                               uint64
	queueHist, simHist                                             histogram
	tenants                                                        []tenantMetrics
	runner                                                         experiment.RunnerStats
	runnerCount                                                    int
	storeRecords                                                   int
	storeHitsDisk, storeMisses, storePuts                          uint64
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	s.mu.Lock()
	m := metricsSnapshot{
		submitted:        s.submitted,
		completed:        s.completed,
		failed:           s.failed,
		interrupted:      s.interrupted,
		rejected:         s.rejected,
		storeHits:        s.storeHits,
		throttled:        s.throttled,
		unauthorized:     s.unauthorized,
		queueDepth:       s.pending,
		queueCap:         s.cfg.QueueDepth,
		queueWaitSeconds: s.queueWait.Seconds(),
		queueWaitN:       s.queueWaitN,
		simSeconds:       s.simWall.Seconds(),
		simN:             s.simN,
		queueHist:        s.queueHist.snapshot(),
		simHist:          s.simHist.snapshot(),
		runner:           s.runnerBase, // evicted runners' counters
		runnerCount:      len(s.runners),
	}
	for _, name := range s.rr {
		tn := s.tenants[name]
		m.tenants = append(m.tenants, tenantMetrics{
			name:        tn.name,
			submitted:   tn.submitted,
			completed:   tn.completed,
			failed:      tn.failed,
			interrupted: tn.interrupted,
			rejected:    tn.rejected,
			throttled:   tn.throttled,
			storeHits:   tn.storeHits,
			active:      tn.active,
			queued:      len(tn.pending),
		})
	}
	runners := make([]*experiment.Runner, 0, len(s.runners))
	for _, pr := range s.runners { //ctcp:lint-ok maporder -- summed into scalar totals; order-insensitive
		runners = append(runners, pr.r)
	}
	s.mu.Unlock()
	// Runner snapshots take each runner's own lock; do it outside ours.
	for _, r := range runners {
		rs := r.Stats()
		m.runner.Started += rs.Started
		m.runner.Completed += rs.Completed
		m.runner.Failed += rs.Failed
		m.runner.Deduped += rs.Deduped
		m.runner.CacheHits += rs.CacheHits
	}
	m.storeRecords = s.store.Len()
	m.storeHitsDisk, m.storeMisses, m.storePuts = s.store.Counts()
	return m
}

// handleMetrics renders the counters in the Prometheus text exposition
// format (hand-rolled; the service is stdlib-only by design).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.snapshotMetrics()
	var b strings.Builder
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	hist := func(name, help string, h histogram) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		var cum uint64
		for i, bound := range latencyBounds {
			if h.counts != nil {
				cum += h.counts[i]
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.n)
		fmt.Fprintf(&b, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(&b, "%s_count %d\n", name, h.n)
	}
	counter("ctcpd_jobs_submitted_total", "Jobs accepted into the queue.", m.submitted)
	counter("ctcpd_jobs_completed_total", "Jobs that finished successfully.", m.completed)
	counter("ctcpd_jobs_failed_total", "Jobs that failed with a simulation error.", m.failed)
	counter("ctcpd_jobs_interrupted_total", "Jobs cut short by shutdown.", m.interrupted)
	counter("ctcpd_jobs_rejected_total", "Submissions rejected by queue depth or tenant quota.", m.rejected)
	counter("ctcpd_jobs_throttled_total", "Submissions rejected by a tenant rate limit.", m.throttled)
	counter("ctcpd_unauthorized_total", "API requests with a missing or unknown key.", m.unauthorized)
	counter("ctcpd_store_hits_total", "Submissions answered from the result store.", m.storeHits)
	gauge("ctcpd_queue_depth", "Jobs accepted but not yet running.", m.queueDepth)
	gauge("ctcpd_queue_capacity", "Configured queue bound.", m.queueCap)
	counter("ctcpd_queue_wait_seconds_total", "Total time jobs spent queued.", fmt.Sprintf("%g", m.queueWaitSeconds))
	counter("ctcpd_queue_wait_count_total", "Jobs that left the queue for a worker.", m.queueWaitN)
	counter("ctcpd_sim_seconds_total", "Total wall time spent in simulation calls.", fmt.Sprintf("%g", m.simSeconds))
	counter("ctcpd_sim_count_total", "Simulation calls issued to runners.", m.simN)
	hist("ctcpd_queue_latency_seconds", "Time from acceptance to dispatch.", m.queueHist)
	hist("ctcpd_sim_latency_seconds", "Wall time of each simulation call.", m.simHist)
	counter("ctcpd_runner_started_total", "Distinct simulations begun by the pooled runners.", m.runner.Started)
	counter("ctcpd_runner_completed_total", "Runner simulations that finished successfully.", m.runner.Completed)
	counter("ctcpd_runner_failed_total", "Runner simulations that aborted.", m.runner.Failed)
	counter("ctcpd_runner_deduped_total", "Callers who joined an in-flight runner simulation.", m.runner.Deduped)
	counter("ctcpd_runner_cache_hits_total", "Callers satisfied from a runner's completed-run cache.", m.runner.CacheHits)
	gauge("ctcpd_runner_pool_size", "Pooled runners currently alive.", m.runnerCount)
	gauge("ctcpd_store_records", "Result records currently persisted.", m.storeRecords)
	counter("ctcpd_store_reads_hit_total", "Store reads that returned a valid record.", m.storeHitsDisk)
	counter("ctcpd_store_reads_miss_total", "Store reads that found no valid record.", m.storeMisses)
	counter("ctcpd_store_writes_total", "Records the service persisted to the store (checkpointed runs write their own).", m.storePuts)
	// Per-tenant rows, in sorted tenant order for deterministic scrapes.
	fmt.Fprintf(&b, "# HELP ctcpd_tenant_jobs_total Job outcomes per tenant.\n# TYPE ctcpd_tenant_jobs_total counter\n")
	for _, tn := range m.tenants {
		fmt.Fprintf(&b, "ctcpd_tenant_jobs_total{tenant=%q,outcome=\"submitted\"} %d\n", tn.name, tn.submitted)
		fmt.Fprintf(&b, "ctcpd_tenant_jobs_total{tenant=%q,outcome=\"completed\"} %d\n", tn.name, tn.completed)
		fmt.Fprintf(&b, "ctcpd_tenant_jobs_total{tenant=%q,outcome=\"failed\"} %d\n", tn.name, tn.failed)
		fmt.Fprintf(&b, "ctcpd_tenant_jobs_total{tenant=%q,outcome=\"interrupted\"} %d\n", tn.name, tn.interrupted)
		fmt.Fprintf(&b, "ctcpd_tenant_jobs_total{tenant=%q,outcome=\"rejected\"} %d\n", tn.name, tn.rejected)
		fmt.Fprintf(&b, "ctcpd_tenant_jobs_total{tenant=%q,outcome=\"throttled\"} %d\n", tn.name, tn.throttled)
		fmt.Fprintf(&b, "ctcpd_tenant_jobs_total{tenant=%q,outcome=\"store_hit\"} %d\n", tn.name, tn.storeHits)
	}
	fmt.Fprintf(&b, "# HELP ctcpd_tenant_active Queued plus running jobs per tenant.\n# TYPE ctcpd_tenant_active gauge\n")
	for _, tn := range m.tenants {
		fmt.Fprintf(&b, "ctcpd_tenant_active{tenant=%q} %d\n", tn.name, tn.active)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write([]byte(b.String())); err != nil {
		s.logf("metrics: client hung up mid-scrape: %v", err)
	}
}
