package main

import (
	"fmt"
	"reflect"

	"ctcp/internal/pipeline"
	"ctcp/internal/sample"
	"ctcp/internal/stats"
)

// ledger runs the traced run's untimed probes and assembles the per-layer
// rows: the CPU split (the per_layer metrics every workload reports), the
// span-derived layer costs, and the simulated values that explain shifts in
// host time.
func (w *inproc) ledger(t *timed) []metric {
	n, insts := len(w.progs), w.sp.Insts
	var memoHits, memoMisses uint64
	var ckptBytes int
	if w.sp.Sampled {
		for i := range w.progs {
			if res, ok := t.first[i].(*sample.Result); ok { // absent when every run failed
				b, err := w.replaySample(i, res, -(i + 1))
				if err != nil {
					t.problems = append(t.problems, err.Error())
				}
				ckptBytes += b
			}
			emuPass(w.progs[i], insts, w.tr, 0, -(i + 1))
		}
	} else {
		var problems []string
		memoHits, memoMisses, problems = w.kernelProbes(t.first)
		t.problems = append(t.problems, problems...)
	}

	spans := totalsByName(w.tr.spans)
	total := func(name string) float64 {
		if s := spans[name]; s != nil {
			return float64(s.Ns)
		}
		return 0
	}
	medianUs := func(name string) float64 {
		if s := spans[name]; s != nil {
			return median(append([]float64(nil), s.Durs...)) / 1e3
		}
		return 0
	}
	count := func(name string) int {
		if s := spans[name]; s != nil {
			return s.Count
		}
		return 0
	}
	untraced := append([]float64(nil), t.rawNs...)
	passInsts := float64(uint64(n) * insts)
	kernelsBase := fmt.Sprintf("%d kernels x %d insts", n, insts)
	out := cpuMetrics(t.cpu, ratio(t.gcSec, t.busySec),
		fmt.Sprintf("runtime/metrics, %.3f busy cpu-s", t.busySec))
	out = append(out,
		metric{Name: "trace_overhead_frac", Value: median(append([]float64(nil), t.tracedNs...))/median(untraced) - 1,
			Unit: "ratio", Base: fmt.Sprintf("ns_per_inst_p50 of %d traced vs %d untraced runs", len(t.tracedNs), len(untraced))},
		metric{Name: "workload.program_ms", Value: total("workload.ProgramFor") / 1e6, Unit: "ms", Base: fmt.Sprintf("%d kernels", count("workload.ProgramFor"))},
		metric{Name: "emu.ns_per_inst", Value: total("emu.pass") / passInsts, Unit: "ns", Base: kernelsBase},
		metric{Name: "pipeline.new_us", Value: medianUs("pipeline.New"), Unit: "us", Base: fmt.Sprintf("median of %d calls", count("pipeline.New"))},
	)

	var sum pipeline.Stats
	var ipcs []float64
	for _, r := range t.first {
		switch r := r.(type) {
		case *sample.Result:
			addStats(&sum, &r.Stats)
			ipcs = append(ipcs, r.IPC())
		case *pipeline.Stats:
			addStats(&sum, r)
			ipcs = append(ipcs, r.IPC())
		}
	}
	retired := float64(sum.Retired)

	if w.sp.Sampled {
		runs := ratio(float64(count("sample.Run")), float64(n)) // traced rounds
		out = append(out,
			metric{Name: "pipeline.run_ns_per_inst", Value: total("pipeline.RunTo") / retired, Unit: "ns",
				Base: fmt.Sprintf("%d detailed insts", sum.Retired)},
			metric{Name: "snap.encode_us", Value: medianUs("snap.encode"), Unit: "us", Base: fmt.Sprintf("median of %d checkpoints", count("snap.encode"))},
			metric{Name: "snap.decode_us", Value: medianUs("snap.decode"), Unit: "us", Base: fmt.Sprintf("median of %d restores", count("snap.decode"))},
			metric{Name: "snap.ckpt_kb", Value: ratio(float64(ckptBytes)/1024, float64(count("snap.encode"))), Unit: "KB",
				Base: fmt.Sprintf("mean of %d checkpoints", count("snap.encode"))},
			metric{Name: "sample.forward_frac", Value: ratio(total("sample.forward"), total("sample.Run")/runs), Unit: "ratio",
				Base: fmt.Sprintf("forward pass vs sample.Run wall, %d kernels", n)},
		)
	} else {
		runNs := total("pipeline.Run")
		runInsts := float64(count("pipeline.Run")) * float64(insts)
		runPerInst := ratio(runNs, runInsts)
		emuPerInst := total("emu.pass") / passInsts
		corePerInst := total("core.replay") / passInsts
		out = append(out,
			metric{Name: "core.retire_ns_per_inst", Value: corePerInst, Unit: "ns", Base: kernelsBase},
			metric{Name: "core.memo_hit_ratio", Value: ratio(float64(memoHits), float64(memoHits+memoMisses)), Unit: "ratio",
				Base: fmt.Sprintf("%d memo lookups", memoHits+memoMisses)},
			metric{Name: "core.traces_per_kinst", Value: 1000 * float64(sum.Fill.TracesBuilt) / retired, Unit: "count",
				Base: fmt.Sprintf("%d traces", sum.Fill.TracesBuilt)},
			metric{Name: "pipeline.run_ns_per_inst", Value: runPerInst, Unit: "ns", Base: fmt.Sprintf("%d Run spans", count("pipeline.Run"))},
			metric{Name: "pipeline.self_ns_per_inst", Value: runPerInst - emuPerInst - corePerInst, Unit: "ns",
				Base: "Run span minus emu pass and fill-unit replay"},
			metric{Name: "pipeline.ns_per_cycle", Value: runPerInst * retired / float64(sum.Cycles), Unit: "ns",
				Base: fmt.Sprintf("%d simulated cycles per round", sum.Cycles)},
		)
	}
	out = append(out,
		metric{Name: "pipeline.ipc_hmean", Value: stats.HarmonicMean(ipcs), Unit: "ratio", Base: fmt.Sprintf("%d kernels", n)},
		metric{Name: "pipeline.from_tc_frac", Value: float64(sum.RetiredFromTC) / retired, Unit: "ratio"},
		metric{Name: "trace.hit_rate", Value: ratio(float64(sum.TC.Hits), float64(sum.TC.Lookups)), Unit: "ratio",
			Base: fmt.Sprintf("%d lookups", sum.TC.Lookups)},
		metric{Name: "bpred.mispredict_rate", Value: ratio(float64(sum.Mispredicts), float64(sum.CondBranches)), Unit: "ratio",
			Base: fmt.Sprintf("%d conditional branches", sum.CondBranches)},
		metric{Name: "cluster.crit_intra_frac", Value: ratio(float64(sum.CritIntraCluster), float64(sum.CritForwarded)), Unit: "ratio",
			Base: fmt.Sprintf("%d forwarded critical inputs", sum.CritForwarded)},
		metric{Name: "cluster.avg_fwd_hops", Value: ratio(float64(sum.CritDistSum), float64(sum.CritForwarded)), Unit: "count",
			Base: fmt.Sprintf("%d forwarded critical inputs", sum.CritForwarded)},
		metric{Name: "pipeline.rob_full_per_kinst", Value: 1000 * float64(sum.ROBFullStalls) / retired, Unit: "count",
			Base: fmt.Sprintf("%d retired insts", sum.Retired)},
	)
	return out
}

// addStats sums every integer counter of src into dst, recursing into
// nested structs (the same merge sample.Run applies to its regions).
func addStats(dst, src *pipeline.Stats) {
	addValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func addValue(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addValue(dst.Field(i), src.Field(i))
		}
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	}
}
