package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares its host with other tenants, which slow every CPU of
// it by 10% to nearly 3x for seconds to minutes at a time. The slowdown shows in CPU
// time as much as in wall time (the vCPUs are not descheduled: their cores
// run slower), so no clock can screen it out. The yardstick measures it
// instead: a fixed computation that uses no code of the repository, timed
// right next to the simulations. Every end-to-end timing is multiplied by
// yardstickNominalNs ÷ (the yardstick's time around it), which turns it into
// time on the quiet host the benchmark was sized on. A change to the
// simulator moves the scaled times as it moves the raw ones; a slow minute of
// the host moves both the simulation and the yardstick, and cancels.
//
// The computation is a random read-modify-write walk over 4 MiB, more than
// the core's own caches hold. Of the loops tried (pure ALU; walks over
// 256 KiB, 4 MiB and 64 MiB; the 4 MiB walk with a data-dependent branch;
// pointer chases over 2, 8 and 32 MiB; sorting; map updates), its slowdowns
// tracked the simulator's closest. It has no data-dependent branch, so the
// values it stores never change its time.
const (
	yardstickWords = 1 << 20 // uint32s: 4 MiB
	yardstickSteps = 500_000
	// yardstickNominalNs is about the median pass of the quietest runs made
	// while sizing the benchmark on a 2-vCPU "Intel(R) Xeon(R) Processor"
	// virtual machine (go1.24.0), when kernels-fdrt ran at ~366 ns/inst
	// unscaled. It only fixes the unit of the scaled times; it must never
	// change once runs are compared.
	yardstickNominalNs = 2.4e6
)

// yardstick holds the walk's memory. A pass is not safe to run on two
// goroutines at once.
type yardstick struct {
	words []uint32
	x     uint32
}

func newYardstick() *yardstick {
	y := &yardstick{words: make([]uint32, yardstickWords), x: 0x9e3779b9}
	for i := range y.words {
		y.words[i] = uint32(i) // fault every page in before a pass is timed
	}
	return y
}

// pass walks once and returns the calling thread's CPU time for it, in ns.
func (y *yardstick) pass() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNs()
	w, x, acc := y.words, y.x, uint32(0)
	for i := 0; i < yardstickSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (yardstickWords - 1)
		acc += w[j]
		w[j] = acc
	}
	y.x = x
	return float64(threadCPUNs() - t0)
}

// scale returns the factor that converts a time measured between two passes
// that took before and after ns into time on the nominal host.
func scale(before, after float64) float64 {
	return 2 * yardstickNominalNs / (before + after)
}

// hostSlowdown is the median pass over the nominal one: how much slower
// than the quiet host the run's host was. It is printed, not gated.
func hostSlowdown(passes []float64) metric {
	return metric{Name: "host_slowdown", Value: median(append([]float64(nil), passes...)) / yardstickNominalNs, Unit: "ratio",
		Base: fmt.Sprintf("median of %d yardstick passes over the nominal %.1f ms, not gated", len(passes), yardstickNominalNs/1e6)}
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTimeID = 3

// threadCPUNs returns the calling thread's CPU time from the scheduler's
// nanosecond clock. (getrusage's per-thread times are tick-sampled here and
// wander by ±50% over a 5 ms pass.)
func threadCPUNs() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// yardstickSampler passes the yardstick every period on its own goroutine
// while a child process does the measured work, for workloads that cannot
// interleave passes with their runs. It reads thread CPU time, so the child
// taking the CPUs away only delays a pass, never lengthens it. Passes
// alongside the child's two workers track the child less closely than
// passes between runs track an in-process simulation. They slowed ~13% more
// than the child's simulations in the host's noisiest hour. Pausing the child
// (SIGSTOP) for each pass instead made them slow ~13% less.
type yardstickSampler struct {
	y    *yardstick
	stop chan struct{}
	done chan struct{}
	once sync.Once
	at   []time.Time // midpoint of each pass
	ns   []float64
}

func sampleYardstick(y *yardstick, period time.Duration) *yardstickSampler {
	s := &yardstickSampler{y: y, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				ns := s.y.pass()
				s.at = append(s.at, t0.Add(time.Since(t0)/2))
				s.ns = append(s.ns, ns)
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it; it may be called more than once.
func (s *yardstickSampler) halt() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// scaleOver returns the scale for an interval: from the median of the passes
// inside it, or from the two passes around it when none falls inside. It
// returns 1 when the sampler recorded no pass. Call it after halt.
func (s *yardstickSampler) scaleOver(from, to time.Time) float64 {
	if len(s.ns) == 0 {
		return 1
	}
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(to) })
	if lo < hi {
		m := median(append([]float64(nil), s.ns[lo:hi]...))
		return scale(m, m)
	}
	before, after := s.ns[max(lo-1, 0)], s.ns[min(lo, len(s.ns)-1)]
	return scale(before, after)
}
