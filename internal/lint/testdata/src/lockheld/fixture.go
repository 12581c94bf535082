// Fixture for the lockheld analyzer: loaded by lint_test.go under the
// ctcp/internal/serve import path. Marked lines must diagnose; every other
// line must stay silent.
package fixture

import (
	"os"
	"sync"
	"time"
)

type server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	done chan struct{}
	evs  chan int
	n    int
}

// Direct blocking ops inside a lock region.
func (s *server) directIO(path string) {
	s.mu.Lock()
	_ = os.WriteFile(path, nil, 0o644) // want:lockheld
	s.mu.Unlock()
	_ = os.WriteFile(path, nil, 0o644) // after release: no diagnostic
}

func (s *server) sleepUnderRLock() {
	s.rw.RLock()
	time.Sleep(time.Millisecond) // want:lockheld
	s.rw.RUnlock()
}

func (s *server) chanOpsUnderLock() {
	s.mu.Lock()
	s.evs <- 1 // want:lockheld
	<-s.done   // want:lockheld
	s.mu.Unlock()
}

// defer mu.Unlock() keeps the region open to function exit.
func (s *server) deferUnlock(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = os.ReadFile(path) // want:lockheld
}

// May-analysis: one branch unlocks, the other does not; after the join the
// lock may still be held.
func (s *server) branchy(path string, early bool) {
	s.mu.Lock()
	if early {
		s.mu.Unlock()
	}
	_, _ = os.ReadFile(path) // want:lockheld
	if !early {
		s.mu.Unlock()
	}
}

// Transitive: the blocking op is reached through a module call chain.
func (s *server) callsHelper(path string) {
	s.mu.Lock()
	writeState(path) // want:lockheld
	s.mu.Unlock()
}

func writeState(path string) { writeStateInner(path) }

func writeStateInner(path string) { _ = os.WriteFile(path, nil, 0o644) }

// Non-blocking constructs under a lock: no diagnostics.
func (s *server) cleanUnderLock() {
	s.mu.Lock()
	s.n++
	select { // select with default is non-blocking by construction
	case s.evs <- s.n:
	default:
	}
	_ = os.Getenv("HOME") // environment access, not I/O
	s.mu.Unlock()
}

// select without default blocks.
func (s *server) blockingSelect() {
	s.mu.Lock()
	select { // want:lockheld
	case <-s.done:
	case s.evs <- 1:
	}
	s.mu.Unlock()
}

// Cond.Wait releases the mutex while parked: the idiom is allowed.
func (s *server) waitLoop() {
	s.mu.Lock()
	for s.n == 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Work handed to a goroutine does not block the lock holder.
func (s *server) spawnUnderLock(path string) {
	s.mu.Lock()
	go func() {
		<-s.done
		_ = os.WriteFile(path, nil, 0o644)
	}()
	s.mu.Unlock()
}

// There is no function-level hatch: a leaf mutex whose entire purpose is
// serializing a file write still holds a lock across I/O.
type journal struct {
	mu   sync.Mutex
	path string
}

// append serializes writers of the journal file.
func (j *journal) append(line []byte) {
	j.mu.Lock()
	_ = os.WriteFile(j.path, line, 0o644) // want:lockheld
	j.mu.Unlock()
}

// Calling it under another lock blocks (and nests locks) at the call site.
func (s *server) logViaJournal(j *journal) {
	s.mu.Lock()
	j.append(nil) // want:lockheld
	s.mu.Unlock()
}

// Suppression still works for deliberate one-offs.
func (s *server) suppressed(path string) {
	s.mu.Lock()
	_ = os.WriteFile(path, nil, 0o644) //ctcp:lint-ok lockheld -- startup-only path, lock uncontended
	s.mu.Unlock()
}

// Range over a channel parks the goroutine while the lock is held.
func (s *server) drainUnderLock() {
	s.mu.Lock()
	for range s.evs { // want:lockheld
		s.n++
	}
	s.mu.Unlock()
}

// No lock may be taken while another is held: a second lock under the
// first is a finding even when every function takes them in the same order,
// so there is no lock order to keep consistent.
func (s *server) secondLock() {
	s.mu.Lock()
	s.rw.RLock() // want:lockheld
	s.n++
	s.rw.RUnlock()
	s.mu.Unlock()
}

// Reacquiring the held mutex deadlocks on the spot.
func (s *server) reacquire() {
	s.mu.Lock()
	s.mu.Lock() // want:lockheld
	s.mu.Unlock()
	s.mu.Unlock()
}

// A module callee that takes the held lock again (the self-deadlock shape of
// calling an accessor like view from inside a region).
func (s *server) view() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *server) viewUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view() // want:lockheld
}

// A module callee that takes a different lock, two calls down.
var muOther sync.Mutex

func lockOther() { lockOtherInner() }

func lockOtherInner() {
	muOther.Lock()
	muOther.Unlock()
}

func (s *server) otherViaCallee() {
	s.mu.Lock()
	lockOther() // want:lockheld
	s.mu.Unlock()
}

// Taking locks one after another, never nested, is fine.
func (s *server) sequential() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	muOther.Lock()
	muOther.Unlock()
	s.mu.Lock()
	s.n--
	s.mu.Unlock()
}
