package pipeline

// Tests for the in-flight record ring: generation-checked slot
// reuse as the ring laps, the incremental bitmask wakeup against the
// per-entry readiness recompute the pooled build performed, and
// checkpoint-format compatibility with a snapshot written by the
// pooled-record build.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math/bits"
	"os"
	"reflect"
	"strings"
	"testing"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// lapRing makes the n-1 allocations that follow one in a ring of n slots,
// so the next alloc comes back to that slot, and returns the id of the last
// of them.
func lapRing(st *infStore, n int) infID {
	var last uint32
	for i := 1; i < n; i++ {
		last = st.alloc()
	}
	return st.e[last].id(last)
}

// TestStaleInfIDPanicsInvariantError: once the ring laps a slot, alloc has
// bumped its generation, so a reference to the previous tenant must fail
// the generation check with *core.InvariantError (not a silent read of the
// slot's next tenant).
func TestStaleInfIDPanicsInvariantError(t *testing.T) {
	const n = 4
	var st infStore
	st.size(n)
	a := st.alloc()
	id := st.e[a].id(a)
	lapRing(&st, n)
	st.alloc()

	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("index(stale id) did not panic")
		}
		ie, ok := rec.(*core.InvariantError)
		if !ok {
			t.Fatalf("panic value is %T (%v), want *core.InvariantError", rec, rec)
		}
		if ie.Msg == "" {
			t.Fatal("InvariantError carries no message")
		}
	}()
	st.index(id)
}

// TestInfIDSlotReuse: the ring hands a slot out again only after lapping
// every other slot, and under a new generation — the old id is dead, the
// new tenant's id and the ids of slots not yet lapped resolve.
func TestInfIDSlotReuse(t *testing.T) {
	const n = 4
	var st infStore
	st.size(n)
	a := st.alloc()
	idA := st.e[a].id(a)
	live := lapRing(&st, n)
	if got := st.index(idA); got != a {
		t.Fatalf("id resolved to slot %d before the ring lapped it, want %d", got, a)
	}

	b := st.alloc()
	if b != a {
		t.Fatalf("ring did not come round to slot %d after %d allocations: got %d", a, n, b)
	}
	idB := st.e[b].id(b)
	if idA == idB {
		t.Fatal("lapped slot produced an identical id (generation not bumped)")
	}
	if got := st.index(idB); got != b {
		t.Fatalf("new tenant's id resolved to slot %d, want %d", got, b)
	}
	if got := st.index(live); got != uint32(live) {
		t.Fatalf("live id resolved to slot %d, want %d", got, uint32(live))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stale id resolved after the ring lapped its slot")
			}
		}()
		st.index(idA)
	}()
}

// TestStaleInfIDRecoveredAsSimError: the run boundary (RunProgramErr, which
// the experiment runner and ctcpbench use) converts an InvariantError panic
// anywhere inside the model into a *SimError instead of crashing the sweep.
// The panic is provoked through a real invariant breach — a geometry with
// no clusters gives steering no valid target — because a stale id cannot be
// injected from outside the model; TestStaleInfIDPanicsInvariantError above
// pins the panic type the id check raises, and this test pins the recovery.
func TestStaleInfIDRecoveredAsSimError(t *testing.T) {
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip kernel missing")
	}
	cfg := DefaultConfig().WithStrategy(core.FDRT, false)
	cfg.MaxInsts = 2000
	cfg.Geom.Clusters = 0
	stats, err := RunProgramErr(bm.ProgramFor(2000), cfg)
	if err == nil {
		t.Fatal("pathological configuration did not abort")
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("run boundary returned %T (%v), want *SimError", err, err)
	}
	if stats != nil {
		t.Fatal("aborted run returned non-nil stats")
	}
}

// readinessRef recomputes an RS entry's ready cycle from first principles —
// the formula the pooled build's per-entry readiness() evaluated on every
// scan: each register input arrives either from the register file (rfReady)
// or from its in-flight producer (resultAt + forward latency), and the
// entry is ready when the last input lands. It mirrors resolve() without
// touching any of resolve's outputs.
func readinessRef(p *Pipeline, idx uint32) int64 {
	st := &p.st
	e := &st.e[idx]
	var t [2]int64
	var fwd [2]bool
	src := e.rec.Src
	present := [2]bool{src[0] != isa.NoReg, src[1] != isa.NoReg}
	for k := 0; k < 2; k++ {
		if !present[k] {
			continue
		}
		pid := e.prod[k]
		if pid == noID {
			t[k] = e.rfReady
			continue
		}
		pe := &st.e[st.index(pid)]
		t[k] = pe.resultAt + p.effFwd(pe, e)
		fwd[k] = true
	}
	ready := maxI64(t[0], t[1])
	if p.cfg.ZeroCritFwdLat {
		crit := -1
		switch {
		case present[0] && present[1]:
			if t[1] > t[0] {
				crit = 1
			} else {
				crit = 0
			}
		case present[0]:
			crit = 0
		case present[1]:
			crit = 1
		}
		if crit >= 0 && fwd[crit] {
			other := t[1-crit]
			if !present[1-crit] {
				other = 0
			}
			ready = maxI64(other, st.e[st.index(e.prod[crit])].resultAt)
		}
	}
	return ready
}

// TestWakeupMatchesReadinessRecompute steps gzip cycle by cycle under every
// allocCases configuration, and under a 20,000-cycle memory latency whose
// waiting consumers outrun the due-list ring and are filed again, and
// cross-checks the incremental wakeup machinery against the per-entry
// recompute on the recorded scheduling trace:
//
//	(a) at the end of each cycle, a live RS entry's ready-mask bit is set iff
//	    the entry is resolved and its ready cycle has come, no hole has a
//	    bit, and each cluster's ready count is its mask's popcount,
//	(b) the moment an entry resolves, its readyAt equals the reference
//	    recomputation from its producers' resultAt and the RF time,
//	(c) nothing issues before the cycle it was declared ready for,
//	(d) every cluster keeps the window and ready mask Reset sized for it
//	    (windowCap entries, a mask word per 64), and no window outgrows
//	    windowCap.
func TestWakeupMatchesReadinessRecompute(t *testing.T) {
	bm, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip kernel missing")
	}
	const insts = 8_000
	prog := bm.ProgramFor(insts)
	farMem := DefaultConfig().WithStrategy(core.FDRT, false)
	farMem.Mem.MemLat = 20_000
	for _, c := range append(allocCases(), allocCase{name: "fdrt-far-mem", cfg: farMem}) {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.MaxInsts = insts
			parked := checkWakeup(t, New(&emu.LimitStream{S: emu.New(prog), Budget: insts}, cfg))
			if cfg.Mem.MemLat == farMem.Mem.MemLat && parked == 0 {
				t.Errorf("no entry was ever due %d or more cycles ahead; the far-latency case parked nothing", dueRing)
			}
		})
	}
}

// checkWakeup runs p to the end under the checks above and returns the
// number of times it saw an entry parked on the farthest due list, due
// dueRing or more cycles after the cycle that just ended.
func checkWakeup(t *testing.T, p *Pipeline) (parked int) {
	st := &p.st
	pendingReady := map[infID]int64{} // resolved but not yet issued
	checked := 0
	limit := windowCap(p.cfg)
	type window struct {
		ids   *infID
		ready *uint64
	}
	given := make([]window, len(p.cl))
	for c := range p.cl {
		cs := &p.cl[c]
		if cap(cs.ids) != limit || len(cs.ready) != (limit+63)/64 {
			t.Fatalf("cluster %d: Reset gave a %d-entry window and a %d-word mask; windowCap is %d",
				c, cap(cs.ids), len(cs.ready), limit)
		}
		given[c] = window{&cs.ids[:1][0], &cs.ready[0]}
	}
	peak := 0
	for !p.done() {
		cyc := p.now
		p.cycle()

		// (c) entries that issued this cycle were due: issue clears them out
		// of the RS, so detect the flag transition on still-live slots.
		for id, ready := range pendingReady {
			idx := uint32(id)
			if idx >= uint32(len(st.e)) || st.e[idx].gen != uint32(id>>32) {
				delete(pendingReady, id) // retired, and its slot lapped
				continue
			}
			if st.e[idx].flags&fIssued != 0 {
				if cyc < ready {
					t.Fatalf("cycle %d: slot %d issued before its ready cycle %d", cyc, idx, ready)
				}
				delete(pendingReady, id)
			}
		}

		for c := range p.cl {
			cs := &p.cl[c]
			// (d) the buffers are Reset's, and the window within its bound.
			if len(cs.ids) > limit {
				t.Fatalf("cycle %d: cluster %d window holds %d entries, over windowCap %d", cyc, c, len(cs.ids), limit)
			}
			if cap(cs.ids) != limit || &cs.ids[:1][0] != given[c].ids ||
				len(cs.ready) != (limit+63)/64 || &cs.ready[0] != given[c].ready {
				t.Fatalf("cycle %d: cluster %d window or ready mask is not the one Reset sized", cyc, c)
			}
			peak = max(peak, len(cs.ids))
			set := 0
			for _, w := range cs.ready {
				set += bits.OnesCount64(w)
			}
			if set != cs.nReady {
				t.Fatalf("cycle %d: cluster %d ready count %d, mask has %d bits set", cyc, c, cs.nReady, set)
			}
			for pos, id := range cs.ids {
				bit := cs.ready[pos>>6]&(1<<uint(pos&63)) != 0
				if id == noID {
					if bit {
						t.Fatalf("cycle %d: cluster %d hole %d has a mask bit", cyc, c, pos)
					}
					continue
				}
				idx := uint32(id)
				resolved := st.e[idx].flags&fResolved != 0
				if due := resolved && st.e[idx].readyAt <= cyc; bit != due {
					t.Fatalf("cycle %d: cluster %d slot %d mask bit %v but resolved %v, readyAt %d",
						cyc, c, idx, bit, resolved, st.e[idx].readyAt)
				}
				if bit {
					set--
				}
				if !resolved {
					continue
				}
				if st.e[idx].readyAt-cyc >= dueRing {
					parked++
				}
				if _, seen := pendingReady[id]; seen {
					continue
				}
				// Newly resolved this cycle: the producers it waited on issued
				// at the latest this cycle and cannot have been lapped yet,
				// so the reference recompute sees exactly what resolve() saw.
				if want := readinessRef(p, idx); want != st.e[idx].readyAt {
					t.Fatalf("cycle %d: slot %d readyAt %d, reference readiness %d",
						cyc, idx, st.e[idx].readyAt, want)
				}
				pendingReady[id] = st.e[idx].readyAt
				checked++
			}
			if set != 0 {
				t.Fatalf("cycle %d: cluster %d has %d mask bits past its window", cyc, c, set)
			}
		}

		p.now++
	}
	if checked < 1_000 {
		t.Fatalf("cross-checked only %d resolutions; trace too short to be meaningful", checked)
	}
	t.Logf("longest window %d of windowCap %d", peak, limit)
	return parked
}

// TestPooledCheckpointCompat restores a checkpoint written by the
// pooled-record build (testdata/pooled_v0.ckpt: mcf, 12000-instruction
// budget, FDRT, paused at the RunTo(6000) drained boundary) into the
// record-ring pipeline and finishes the run. Snapshots are only legal at
// drained boundaries where no instruction is in flight, so the inflight
// representation is invisible to the format — the restored run must produce
// exactly the stats the pooled build recorded.
func TestPooledCheckpointCompat(t *testing.T) {
	wantBuf, err := os.ReadFile("testdata/pooled_v0_stats.json")
	if err != nil {
		t.Fatalf("reading pooled-build stats: %v", err)
	}
	var want Stats
	if err := json.Unmarshal(wantBuf, &want); err != nil {
		t.Fatalf("parsing pooled-build stats: %v", err)
	}
	p, m, _ := restorePooledFixture(t)

	p.RunTo(0)
	got := p.Finish()
	if !reflect.DeepEqual(&want, got) {
		wj, _ := json.Marshal(&want)
		gj, _ := json.Marshal(got)
		t.Errorf("record-ring continuation diverged from the pooled build\n pooled %s\n ring   %s", wj, gj)
	}
	const wantMem = uint64(0x22269e311e57baec)
	if sum := m.Mem.Checksum(); sum != wantMem {
		t.Errorf("final memory checksum %#x, want %#x", sum, wantMem)
	}
}

// restorePooledFixture restores testdata/pooled_v0.ckpt into a fresh mcf/FDRT
// pipeline, returning it, its emulator and the fixture bytes.
func restorePooledFixture(t *testing.T) (*Pipeline, *emu.Machine, []byte) {
	t.Helper()
	data, err := os.ReadFile("testdata/pooled_v0.ckpt")
	if err != nil {
		t.Fatalf("reading pooled-build checkpoint: %v", err)
	}
	const budget = 12_000
	bm, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf kernel missing")
	}
	m := emu.New(bm.ProgramFor(budget))
	cfg := DefaultConfig().WithStrategy(core.FDRT, false)
	p := New(&emu.LimitStream{S: m, Budget: budget}, cfg)

	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	p.Restore(r)
	if err := r.Close(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := p.Consumed(); got != budget/2 {
		t.Fatalf("restored pipeline consumed %d, want %d", got, budget/2)
	}
	return p, m, data
}

// TestSnapshotReencodesPooledFixture pins the encoding itself, not just its
// decoding: snapshotting the restored fixture reproduces it byte for byte.
func TestSnapshotReencodesPooledFixture(t *testing.T) {
	p, _, data := restorePooledFixture(t)
	w := snap.NewWriter()
	p.Snapshot(w)
	got, err := w.Finish()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("re-snapshot of pooled_v0.ckpt differs: %d bytes, fixture %d", len(got), len(data))
	}
}

// TestRestoreRefusesRenamedMismatch: the pipeline section's renamed-count
// slot, written as Stats.Retired since the counter itself was deleted,
// must agree with the restored Retired. A checkpoint whose slot disagrees,
// its checksum recomputed so only the check can catch it, is refused.
func TestRestoreRefusesRenamedMismatch(t *testing.T) {
	_, _, data := restorePooledFixture(t)
	// Magic and version (10 bytes), the section marker, name length and
	// "pipeline" (11), the payload length (4), then 13 words before the slot.
	const payload, slot = 25, 25 + 13*8
	data = bytes.Clone(data)
	if got := binary.LittleEndian.Uint64(data[slot:]); got != 6000 {
		t.Fatalf("renamed slot holds %d, want the fixture's 6000 retired", got)
	}
	binary.LittleEndian.PutUint64(data[slot:], 6001)
	h := fnv.New64a()
	h.Write(data[payload : len(data)-8])
	binary.LittleEndian.PutUint64(data[len(data)-8:], h.Sum64())

	bm, _ := workload.ByName("mcf")
	p := New(&emu.LimitStream{S: emu.New(bm.ProgramFor(12_000)), Budget: 12_000}, DefaultConfig().WithStrategy(core.FDRT, false))
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	p.Restore(r)
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "renamed 6001") {
		t.Fatalf("restoring a checkpoint whose renamed slot disagrees with Retired: err %v, want a refusal", err)
	}
}
