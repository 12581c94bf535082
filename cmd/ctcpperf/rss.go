package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssPeriod is how often an rssSampler reads the resident set size.
const rssPeriod = 20 * time.Millisecond

// rssSampler averages a process's resident set size over time. The mean is
// the memory metric because the peak (getrusage maxrss) swings by ~20% from
// run to run with where garbage-collection cycles happen to fall, while the
// mean over hundreds of samples repeats within a few percent.
type rssSampler struct {
	path  string
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	sumMB float64
	n     int
}

// sampleRSS starts sampling process pid (0: this process) until stopMB.
func sampleRSS(pid int) *rssSampler {
	path := "/proc/self/statm"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/statm", pid)
	}
	s := &rssSampler{path: path, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssPeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if mb, ok := readRSSMB(s.path); ok {
				s.sumMB += mb
				s.n++
			}
		}
	}
}

// stopMB stops the sampler, waits for it, and returns the mean in MB (0
// without samples). It may be called more than once.
func (s *rssSampler) stopMB() float64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return ratio(s.sumMB, float64(s.n))
}

// readRSSMB reads the resident pages field of a statm file; it fails once
// the process has exited.
func readRSSMB(path string) (float64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil || pages == 0 { // an exited, unreaped child reads as zeros
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
