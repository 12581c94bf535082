package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
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

// metricsSnapshot is one consistent read of every counter /metrics exposes:
// the service-level job counters, the queue gauge, latency histograms, and
// the runners' simulation counters. runStarted is the exactly-once witness:
// after any number of duplicate submissions of one job — or a restart over
// a store of completed fingerprints — it stays 1.
type metricsSnapshot struct {
	submitted, completed, failed, interrupted, rejected, storeHits uint64
	runStarted, runCompleted, runFailed                            uint64
	queueDepth, queueCap                                           int
	queueHist, simHist                                             histogram
	storeRecords                                                   int
	storeHitsDisk, storeMisses, storePuts                          uint64
	simTotal                                                       pipeline.Stats
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	s.mu.Lock()
	m := metricsSnapshot{
		submitted:    s.submitted,
		completed:    s.completed,
		failed:       s.failed,
		interrupted:  s.interrupted,
		rejected:     s.rejected,
		storeHits:    s.storeHits,
		runStarted:   s.runStarted,
		runCompleted: s.runCompleted,
		runFailed:    s.runFailed,
		queueDepth:   s.pending,
		queueCap:     s.cfg.QueueDepth,
		queueHist:    s.queueHist.snapshot(),
		simHist:      s.simHist.snapshot(),
		simTotal:     s.simTotal,
	}
	s.mu.Unlock()
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
	counter("ctcpd_jobs_rejected_total", "Submissions rejected by queue depth.", m.rejected)
	counter("ctcpd_store_hits_total", "Submissions answered from the result store.", m.storeHits)
	gauge("ctcpd_queue_depth", "Jobs accepted but not yet running.", m.queueDepth)
	gauge("ctcpd_queue_capacity", "Configured queue bound.", m.queueCap)
	hist("ctcpd_queue_latency_seconds", "Time from acceptance to dispatch.", m.queueHist)
	hist("ctcpd_sim_latency_seconds", "Wall time of each simulation call.", m.simHist)
	counter("ctcpd_runner_started_total", "Distinct simulations begun by the runners.", m.runStarted)
	counter("ctcpd_runner_completed_total", "Runner simulations that finished successfully.", m.runCompleted)
	counter("ctcpd_runner_failed_total", "Runner simulations that aborted or were interrupted.", m.runFailed)
	gauge("ctcpd_store_records", "Result records currently persisted.", m.storeRecords)
	counter("ctcpd_store_reads_hit_total", "Store reads that returned a valid record.", m.storeHitsDisk)
	counter("ctcpd_store_reads_miss_total", "Store reads that found no valid record.", m.storeMisses)
	counter("ctcpd_store_writes_total", "Records the service persisted to the store (checkpointed runs write their own).", m.storePuts)
	b.WriteString("# HELP ctcpd_sim_counter_total Each pipeline.Stats counter, by dotted field path, summed over the runner's completed simulations.\n# TYPE ctcpd_sim_counter_total counter\n")
	snap.Walk(reflect.ValueOf(&m.simTotal).Elem(), func(f snap.Field) {
		fmt.Fprintf(&b, "ctcpd_sim_counter_total{counter=\"%s\"} %v\n", f.Path(), f.Value)
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write([]byte(b.String())); err != nil {
		s.logf("metrics: client hung up mid-scrape: %v", err)
	}
}
