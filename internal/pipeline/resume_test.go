package pipeline

// Bit-exact resume: a pipeline snapshotted at a drained RunTo boundary and
// restored into a fresh process-equivalent pipeline must finish with Stats
// identical — every counter — to the same pipeline simply continuing in
// memory, and the segmented run itself must match the monolithic Run. This
// is the contract that makes on-disk checkpoints and sampled simulation
// trustworthy: there is no "approximately resumed" state.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

const resumeInsts = 12_000

// newSegPipe builds a machine + budget-limited stream + pipeline for
// segmented execution. The budget lives in an explicit LimitStream (not
// Config.MaxInsts) so that it is snapshotted with the stream.
func newSegPipe(t *testing.T, bench string, k core.StrategyKind, budget uint64) (*emu.Machine, *Pipeline) {
	t.Helper()
	bm, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	m := emu.New(bm.ProgramFor(budget))
	cfg := DefaultConfig().WithStrategy(k, false)
	return m, New(&emu.LimitStream{S: m, Budget: budget}, cfg)
}

func resumeKernels() []string { return []string{"gzip", "mcf", "eon", "perlbmk"} }

// TestRunToMatchesRun: a single-segment RunTo(0)+Finish is byte-identical
// to the monolithic Run with the same budget.
func TestRunToMatchesRun(t *testing.T) {
	for _, k := range goldenStrategies() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			bm, _ := workload.ByName("gzip")
			cfg := DefaultConfig().WithStrategy(k, false)
			cfg.MaxInsts = resumeInsts
			full := RunProgram(bm.ProgramFor(resumeInsts), cfg)

			_, p := newSegPipe(t, "gzip", k, resumeInsts)
			if !p.RunTo(0) {
				t.Fatal("RunTo(0) did not exhaust the stream")
			}
			seg := p.Finish()
			if !reflect.DeepEqual(full, seg) {
				fj, _ := json.Marshal(full)
				sj, _ := json.Marshal(seg)
				t.Errorf("segmented run diverged from Run\n run   %s\n runTo %s", fj, sj)
			}
		})
	}
}

// TestFinishReturnsCopy: Finish hands out its own copy of the counters, not
// a pointer into the Pipeline, so memoized stats do not keep a finished
// run's caches and trace cache alive, and no two results alias.
func TestFinishReturnsCopy(t *testing.T) {
	_, p := newSegPipe(t, "gzip", core.FDRT, resumeInsts)
	p.RunTo(0)
	a, b := p.Finish(), p.Finish()
	if a == b || a == &p.S || b == &p.S {
		t.Fatal("Finish returned a pointer into the Pipeline")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two Finish calls on a finished run disagree")
	}
}

// TestSnapshotResumeBitExact: for every kernel and every strategy, snapshot
// at the halfway drained boundary, restore into a fresh machine+pipeline,
// finish both ways, and require identical Stats and identical final memory
// images.
func TestSnapshotResumeBitExact(t *testing.T) {
	for _, bench := range resumeKernels() {
		for _, k := range goldenStrategies() {
			bench, k := bench, k
			t.Run(bench+"/"+k.String(), func(t *testing.T) {
				t.Parallel()
				half := uint64(resumeInsts / 2)

				// Continuation A: one pipeline pauses at half, then keeps going.
				mA, pA := newSegPipe(t, bench, k, resumeInsts)
				if pA.RunTo(half) {
					t.Fatalf("stream exhausted before the halfway pause (consumed %d)", pA.Consumed())
				}

				// Snapshot the paused pipeline before continuing it.
				w := snap.NewWriter()
				pA.Snapshot(w)
				data, err := w.Finish()
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}

				pA.RunTo(0)
				sA := pA.Finish()

				// Continuation B: restore the snapshot into a fresh pipeline.
				mB, pB := newSegPipe(t, bench, k, resumeInsts)
				r, err := snap.NewReader(data)
				if err != nil {
					t.Fatalf("reader: %v", err)
				}
				pB.Restore(r)
				if err := r.Close(); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if got := pB.Consumed(); got != half {
					t.Fatalf("restored pipeline consumed %d, want %d", got, half)
				}
				pB.RunTo(0)
				sB := pB.Finish()

				if !reflect.DeepEqual(sA, sB) {
					aj, _ := json.Marshal(sA)
					bj, _ := json.Marshal(sB)
					t.Errorf("restored continuation diverged\n continued %s\n restored  %s", aj, bj)
				}
				if ca, cb := mA.Mem.Checksum(), mB.Mem.Checksum(); ca != cb {
					t.Errorf("final memory checksums differ: %#x vs %#x", ca, cb)
				}
				if mA.OutHash != mB.OutHash {
					t.Errorf("final OUT hashes differ: %#x vs %#x", mA.OutHash, mB.OutHash)
				}
			})
		}
	}
}

// TestRandomSegmentSchedules: for a few kernels under every golden
// strategy, a seeded random schedule of three to six RunTo boundaries runs
// three ways. The reference is one pipeline that just pauses at each
// boundary. At every boundary the second run is snapshotted and continued
// in a new pipeline restored from the snapshot, and the third in a
// pipeline that last ran another kernel and is Reset and then restored.
// All three must finish with identical Stats and memory images.
func TestRandomSegmentSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bench := range []string{"gzip", "mcf", "vortex"} {
		bm, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		prog := bm.ProgramFor(resumeInsts)
		for _, k := range goldenStrategies() {
			sched := make([]uint64, 3+rng.Intn(4))
			for i := range sched {
				sched[i] = uint64(1 + rng.Intn(resumeInsts-1))
			}
			slices.Sort(sched)
			name := fmt.Sprintf("%s/%v/%v", bench, k, sched)
			cfg := DefaultConfig().WithStrategy(k, false)
			newPipe := func() (*emu.Machine, *Pipeline) { return newSegPipe(t, bench, k, resumeInsts) }

			mRef, ref := newPipe()
			for _, b := range sched {
				ref.RunTo(b)
			}
			ref.RunTo(0)
			want := ref.Finish()

			// reused first runs another kernel to completion, so each Reset
			// below starts from a pipeline in a different state.
			_, reused := newSegPipe(t, "eon", k, resumeInsts)
			reused.RunTo(0)
			restoreReused := func() (*emu.Machine, *Pipeline) {
				m := emu.New(prog)
				reused.Reset(&emu.LimitStream{S: m, Budget: resumeInsts}, cfg)
				return m, reused
			}

			for _, restored := range []struct {
				how  string
				into func() (*emu.Machine, *Pipeline)
			}{{"new", newPipe}, {"reset", restoreReused}} {
				m, p := newPipe()
				for _, b := range sched {
					p.RunTo(b)
					data := encode(t, p)
					m, p = restored.into()
					r, err := snap.NewReader(data)
					if err != nil {
						t.Fatalf("%s: reader: %v", name, err)
					}
					p.Restore(r)
					if err := r.Close(); err != nil {
						t.Fatalf("%s: restore into a %s pipeline at %d: %v", name, restored.how, b, err)
					}
				}
				p.RunTo(0)
				if got := p.Finish(); !reflect.DeepEqual(want, got) {
					wj, _ := json.Marshal(want)
					gj, _ := json.Marshal(got)
					t.Errorf("%s: restoring into a %s pipeline at each boundary diverged\n one pipeline %s\n restored     %s", name, restored.how, wj, gj)
				}
				if a, b := mRef.Mem.Checksum(), m.Mem.Checksum(); a != b {
					t.Errorf("%s: restoring into a %s pipeline: final memory checksums differ: %#x vs %#x", name, restored.how, a, b)
				}
			}
		}
	}
}

// TestSnapshotDeterministic: the same paused pipeline always encodes to the
// same bytes, and a restore re-encodes to those bytes.
func TestSnapshotDeterministic(t *testing.T) {
	_, p := newSegPipe(t, "gzip", core.FDRT, resumeInsts)
	p.RunTo(resumeInsts / 2)

	enc := func(p *Pipeline) []byte {
		t.Helper()
		w := snap.NewWriter()
		p.Snapshot(w)
		data, err := w.Finish()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return data
	}
	first := enc(p)
	if second := enc(p); !bytes.Equal(first, second) {
		t.Fatal("two snapshots of the same paused pipeline differ")
	}

	_, q := newSegPipe(t, "gzip", core.FDRT, resumeInsts)
	r, err := snap.NewReader(first)
	if err != nil {
		t.Fatal(err)
	}
	q.Restore(r)
	if err := r.Close(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if reenc := enc(q); !bytes.Equal(first, reenc) {
		t.Fatal("restored pipeline re-encodes differently")
	}
}

// TestSnapshotRejectsUndrained: snapshotting outside a drained boundary
// must fail loudly, never encode a half-consistent machine.
func TestSnapshotRejectsUndrained(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	m := emu.New(bm.ProgramFor(resumeInsts))
	cfg := DefaultConfig().WithStrategy(core.Base, false)
	p := New(&emu.LimitStream{S: m, Budget: resumeInsts}, cfg)
	// Hand-crank a few hundred cycles so instructions are in flight.
	for i := 0; i < 300; i++ {
		step(p)
	}
	if p.robLen == 0 {
		t.Fatal("test setup: expected in-flight instructions after 300 cycles")
	}
	w := snap.NewWriter()
	p.Snapshot(w)
	if _, err := w.Finish(); err == nil {
		t.Fatal("Snapshot of an undrained pipeline succeeded")
	}
}

// TestResumeFreshProcess re-executes the test binary: the parent snapshots
// at the halfway boundary and writes the checkpoint to disk; a child
// process (same binary, helper test selected by environment) restores it,
// finishes the run, and reports its Stats as JSON; the parent requires them
// identical to its own in-memory continuation. This is the end-to-end
// property the experiment runner's -resume path depends on.
func TestResumeFreshProcess(t *testing.T) {
	if os.Getenv("CTCP_RESUME_CHILD") != "" {
		t.Skip("helper invocation")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "half.ckpt")
	out := filepath.Join(dir, "stats.json")

	_, p := newSegPipe(t, "mcf", core.FDRT, resumeInsts)
	if p.RunTo(resumeInsts / 2) {
		t.Fatal("stream exhausted before the halfway pause")
	}
	w := snap.NewWriter()
	p.Snapshot(w)
	if err := snap.WriteFile(ckpt, w); err != nil {
		t.Fatalf("writing checkpoint: %v", err)
	}
	p.RunTo(0)
	want := p.Finish()

	cmd := exec.Command(os.Args[0], "-test.run", "^TestResumeChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CTCP_RESUME_CHILD=1",
		"CTCP_RESUME_CKPT="+ckpt,
		"CTCP_RESUME_OUT="+out,
	)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process failed: %v\n%s", err, msg)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading child stats: %v", err)
	}
	var got Stats
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("parsing child stats: %v", err)
	}
	if !reflect.DeepEqual(*want, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Errorf("fresh-process resume diverged\n parent %s\n child  %s", wj, gj)
	}
}

// TestResumeChild is the helper body for TestResumeFreshProcess; it only
// runs when re-executed with CTCP_RESUME_CHILD set.
func TestResumeChild(t *testing.T) {
	if os.Getenv("CTCP_RESUME_CHILD") == "" {
		t.Skip("helper: only runs under TestResumeFreshProcess")
	}
	_, p := newSegPipe(t, "mcf", core.FDRT, resumeInsts)
	r, err := snap.ReadFile(os.Getenv("CTCP_RESUME_CKPT"))
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	p.Restore(r)
	if err := r.Close(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	p.RunTo(0)
	buf, err := json.Marshal(p.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("CTCP_RESUME_OUT"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
