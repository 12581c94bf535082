package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Event is one progress tick on a job's lifecycle, delivered in order over
// the streaming endpoint. Queued/running/terminal events come from the
// server's own state machine; segment and region events are plumbed up from
// the simulation itself (a checkpointed run's persisted segment boundaries,
// a sampled run's completed detail windows).
type Event struct {
	Type string `json:"type"` // queued, running, segment, region, done, failed, interrupted
	Job  string `json:"job"`
	// Done/Total report intra-run progress: instructions out of the budget
	// (segment) or completed regions out of the planned schedule (region),
	// which a program that halts early never reaches.
	Done  uint64 `json:"done,omitempty"`
	Total uint64 `json:"total,omitempty"`
	Error string `json:"error,omitempty"`
}

// terminalEvent reports whether ev ends a job's stream.
func terminalEvent(ev Event) bool {
	switch ev.Type {
	case StatusDone, StatusFailed, StatusInterrupted:
		return true
	}
	return false
}

// eventHistoryCap bounds the per-job event history replayed to late
// subscribers. Segment/region ticks beyond the cap drop oldest-first; the
// terminal event always fits.
const eventHistoryCap = 64

// emitEventLocked appends ev to the job's history and fans it out to the
// job's live subscribers. Subscriber channels are buffered and lossy: a
// slow consumer misses ticks rather than stalling a simulation goroutine.
// Caller holds s.mu.
func (s *Server) emitEventLocked(j *Job, ev Event) {
	ev.Job = j.ID
	if len(j.events) >= eventHistoryCap {
		j.events = append(j.events[:0], j.events[1:]...)
	}
	j.events = append(j.events, ev)
	for ch := range j.subs { //ctcp:lint-ok maporder -- fan-out; each subscriber sees its own ordered stream
		select {
		case ch <- ev:
		default:
		}
	}
}

// emitEvent is emitEventLocked for callers not holding s.mu.
func (s *Server) emitEvent(j *Job, ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emitEventLocked(j, ev)
}

// subscribe registers a live event channel on j and returns it together
// with a replay of the history so far. The caller must unsubscribe.
func (s *Server) subscribe(j *Job) (<-chan Event, []Event) {
	ch := make(chan Event, 32)
	s.mu.Lock()
	defer s.mu.Unlock()
	history := make([]Event, len(j.events))
	copy(history, j.events)
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return ch, history
}

func (s *Server) unsubscribe(j *Job, ch <-chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sub := range j.subs { //ctcp:lint-ok maporder -- removing one identified element
		if sub == ch {
			delete(j.subs, sub)
			break
		}
	}
}

// handleEvents streams a job's progress as server-sent events: history
// first, then live ticks, ending after the terminal event. Each event is a
// `data:` line carrying the Event JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	ch, history := s.subscribe(j)
	defer s.unsubscribe(j, ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(ev Event) bool {
		buf, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, buf); err != nil {
			// The subscriber disconnected; stop streaming so the defer
			// unsubscribes instead of pumping a dead connection.
			return false
		}
		flusher.Flush()
		return !terminalEvent(ev)
	}
	for _, ev := range history {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			if !send(ev) {
				return
			}
		case <-j.done:
			// The job is terminal. The lossy channel may have dropped the
			// final event under backpressure: drain what's buffered, then
			// synthesize the terminal event from the job itself.
			for drained := false; !drained; {
				select {
				case ev := <-ch:
					if !send(ev) {
						return
					}
				default:
					drained = true
				}
			}
			v := s.view(j)
			send(Event{Type: v.Status, Job: j.ID, Error: v.Error})
			return
		case <-r.Context().Done():
			return
		}
	}
}
