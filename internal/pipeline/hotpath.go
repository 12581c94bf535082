package pipeline

// Allocation-free hot-path substrate. The cycle loop used to allocate on
// every instruction (fresh inflight records, filtered-append queue drains,
// map-based producer/port bookkeeping, per-cycle scratch slices). The
// in-flight store is a fixed ring sized once per geometry (ring.go); the
// types here replace the rest with an in-place deque (infQueue), a
// cycle-keyed port ring (portSched) and the per-PC producer history entry
// (pcStats), so steady-state simulation performs no heap allocation at all.
// Correctness against the original model is pinned by the differential,
// determinism, and golden-stats tests.

import (
	"fmt"

	"ctcp/internal/core"
)

// infQueue is an in-place FIFO of in-flight instruction ids. popFront
// advances a head index instead of reslicing (the old `q = q[1:]` drains
// leaked the buffer's front and forced append to reallocate); the buffer is
// compacted in place only when an append would otherwise grow it.
type infQueue struct {
	buf  []infID
	head int
}

//ctcp:inline
func (q *infQueue) len() int { return len(q.buf) - q.head }

//ctcp:inline
func (q *infQueue) at(i int) infID { return q.buf[q.head+i] }

//ctcp:inline
func (q *infQueue) front() infID { return q.buf[q.head] }

//ctcp:inline
func (q *infQueue) push(id infID) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = noID
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, id)
}

// reset empties the queue, keeping its buffer.
func (q *infQueue) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

//ctcp:inline
func (q *infQueue) popFront() {
	q.buf[q.head] = noID
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// drop turns entry i into a hole for squeeze to remove.
//
//ctcp:inline
func (q *infQueue) drop(i int) { q.buf[q.head+i] = noID }

// squeeze removes the holes among the first n entries, keeping order. The
// survivors move back to end at entry n, so the entries behind them stay
// where they are.
func (q *infQueue) squeeze(n int) {
	w := q.head + n
	for r := w - 1; r >= q.head; r-- {
		if id := q.buf[r]; id != noID {
			w--
			q.buf[w] = id
		}
	}
	for r := q.head; r < w; r++ {
		q.buf[r] = noID
	}
	q.head = w
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// portWindow is the ring size, in cycles, of the data-cache port schedule.
// It only needs to exceed the farthest-future cycle a port can be booked at
// relative to the current cycle (bounded by the memory hierarchy's worst
// round trip plus store-buffer backlog, a few hundred cycles); 8K cycles
// leaves two orders of magnitude of slack. book checks the bound: a booking
// that would evict a live one a window away panics instead.
const portWindow = 1 << 13

// portSched books data-cache ports per absolute cycle on a ring keyed by
// cycle mod portWindow. Each slot remembers which absolute cycle it
// currently represents, so stale bookings from a lapped window read as
// empty without any sweeping or deletion (the old implementation was a
// map[int64]int that was pruned by full iteration).
type portSched struct {
	cycle []int64
	used  []int32
}

// reset empties the schedule in place, allocating the ring on first use.
func (ps *portSched) reset() {
	if len(ps.cycle) != portWindow {
		ps.cycle = make([]int64, portWindow)
		ps.used = make([]int32, portWindow)
	}
	for i := range ps.cycle {
		ps.cycle[i] = -1
		ps.used[i] = 0
	}
}

// book reserves one port at or after cycle t given ports per cycle, and
// returns the cycle used. now is the current cycle: a slot holding another
// cycle before now is a stale booking and is reclaimed, but one holding a
// cycle at or after now is still live, and reclaiming it would silently
// drop a booking, so book panics errLappedBooking instead (see portWindow).
func (ps *portSched) book(t, now int64, ports int) int64 {
	for {
		idx := t & (portWindow - 1)
		if c := ps.cycle[idx]; c != t {
			if c >= now {
				panic(errLappedBooking)
			}
			ps.cycle[idx] = t
			ps.used[idx] = 0
		}
		if int(ps.used[idx]) < ports {
			ps.used[idx]++
			return t
		}
		t++
	}
}

// errLappedBooking is book's panic value. It is built once, so the check
// neither allocates nor pushes book, and portTime with it, out of the
// inlining budget; it is never modified.
var errLappedBooking = &core.InvariantError{Msg: fmt.Sprintf(
	"pipeline: data-cache port booking would evict a live booking a multiple of %d cycles away", portWindow)}

// pcStats is the per-static-instruction producer history behind Table 3
// (last forwarded producer per source, and last critical inter-trace
// producer per source), one pcmap.Map entry per PC. A zero PC means "not
// seen yet", so the zero entry is also the absent one.
type pcStats struct {
	lastProd      [2]uint64
	lastCritInter [2]uint64
}
