package main

import (
	"fmt"

	"ctcp/internal/emu"
	"ctcp/internal/pipeline"
	"ctcp/internal/sample"
	"ctcp/internal/snap"
)

// sampleWorkers is the detailed-simulation pool of the sampled workload:
// the 2 CPUs of the machine the benchmark was sized on.
const sampleWorkers = 2

// sampleOptions derives the sampling schedule from the covered budget: 40
// regions, each simulated in detail for a tenth of its span, the first two
// fifths of that as warm-up (50k / 5k / 2k at the 2M budget).
func sampleOptions(insts uint64) sample.Options {
	interval := insts / 40
	detail := interval / 10
	return sample.Options{
		Interval: interval,
		Detail:   detail,
		Warmup:   detail * 2 / 5,
		Workers:  sampleWorkers,
		MaxInsts: insts,
	}
}

func (w *inproc) simulateSampled(i int, tr *tracer, parent, run int) (any, uint64, error) {
	id := tr.begin("sample.Run", parent, run)
	res, err := sample.Run(w.progs[i], w.cfg, sampleOptions(w.sp.Insts))
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", w.sp.Kernels[i], err)
	}
	return res, res.TotalInsts, nil
}

// replaySample repeats, in sequence and under spans, the public calls
// sample.Run is made of: the forward pass that checkpoints the emulator with
// Machine.Snapshot and Writer.Finish, then per region snap.NewReader,
// Machine.Restore, pipeline.New and RunTo. The merged estimate must equal
// sample.Run's, which checks that the replay measured the same work. It
// returns the checkpoint bytes written.
func (w *inproc) replaySample(i int, want *sample.Result, run int) (ckptBytes int, err error) {
	name, prog, tr := w.sp.Kernels[i], w.progs[i], w.tr
	opts := sampleOptions(w.sp.Insts)
	root := tr.begin("sample.replay", 0, run)
	defer tr.end(root)

	type start struct {
		at, span uint64
		ckpt     []byte
	}
	var starts []start
	fwd := tr.begin("sample.forward", root, run)
	m := emu.New(prog)
	for executed := uint64(0); executed < opts.MaxInsts; {
		span := min(opts.Interval, opts.MaxInsts-executed)
		id := tr.begin("snap.encode", fwd, run)
		sw := snap.NewWriter()
		m.Snapshot(sw)
		ckpt, err := sw.Finish()
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: checkpoint: %w", name, err)
		}
		ckptBytes += len(ckpt)
		var n uint64
		for n < span {
			if _, ok := m.Next(); !ok {
				break
			}
			n++
		}
		if n == 0 {
			break
		}
		starts = append(starts, start{executed, n, ckpt})
		executed += n
		if n < span {
			break
		}
	}
	tr.end(fwd)

	var est float64
	for idx, s := range starts {
		detail, warm := min(opts.Detail, s.span), opts.Warmup
		if idx == 0 {
			detail, warm = s.span, 0 // sample.Run simulates the entry region whole
		}
		if warm >= detail {
			warm = detail / 2
		}
		reg := tr.begin("region", root, run)
		id := tr.begin("snap.decode", reg, run)
		rm := emu.New(prog)
		r, err := snap.NewReader(s.ckpt)
		if err == nil {
			rm.Restore(r)
			err = r.Close()
		}
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: restore region %d: %w", name, idx, err)
		}
		id = tr.begin("pipeline.New", reg, run)
		p := pipeline.New(&emu.LimitStream{S: rm, Budget: detail}, w.cfg)
		tr.end(id)
		id = tr.begin("pipeline.RunTo", reg, run)
		var warmCycles int64
		var warmInsts uint64
		if warm > 0 {
			p.RunTo(warm)
			warmCycles, warmInsts = p.CurrentCycle(), p.Retired()
		}
		p.RunTo(0)
		st := p.Finish()
		tr.end(id)
		tr.end(reg)
		if insts := st.Retired - warmInsts; insts > 0 {
			est += float64(st.Cycles-warmCycles) * float64(s.span) / float64(insts)
		}
	}
	if len(starts) != len(want.Regions) || est != want.EstimatedCycles {
		return 0, fmt.Errorf("%s: sampled replay estimated %.1f cycles over %d regions, sample.Run %.1f over %d",
			name, est, len(starts), want.EstimatedCycles, len(want.Regions))
	}
	return ckptBytes, nil
}
