package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"ctcp/internal/snap"
)

// Journal ops, in lifecycle order. An "accept" makes a submission durable
// before the client sees 202; a "settle" tombstones it once the job has
// answered its acceptance (done or failed). Interrupted jobs are
// deliberately never settled: their acceptance is still owed a simulation,
// so a restart replays them.
const (
	journalAccept = "accept"
	journalSettle = "settle"
)

// journalEntry is one record of the durable queue journal.
type journalEntry struct {
	Op string `json:"op"`
	FP string `json:"fp"`
	// Request is the normalized (defaults applied) submission, kept on
	// accepts so a restart can rebuild and re-dispatch the job.
	Request *Request `json:"req,omitempty"`
}

// jobJournal is the append side of the durable queue: one checksummed line
// per event through snap's journal helpers. Appends serialize on their own
// mutex — never the server's — so journaling can stay off the handler
// fast path.
type jobJournal struct {
	mu   sync.Mutex
	path string
}

// append journals one entry. An error means the acceptance could not be
// made durable and the caller must not act as if it had been.
//
// The append must complete before the 202 response, so the write cannot be
// deferred off-thread; jl.mu is a dedicated leaf lock (never nested under
// Server.mu) whose entire purpose is serializing this file append.
//
//ctcp:coldlock jl.mu is a leaf lock that exists to serialize the journal write itself
func (jl *jobJournal) append(e journalEntry) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := snap.AppendFileLine(jl.path, buf); err != nil {
		return fmt.Errorf("serve: journaling %s %s: %w", e.Op, e.FP, err)
	}
	return nil
}

// load reads the journal and folds it into the set of outstanding accepts,
// in original acceptance order: an accept enters the set, a settle (or a
// later re-accept of the same fingerprint) supersedes the entry before it.
// A torn trailing line — the only damage the append discipline can leave —
// is dropped by the reader.
func (jl *jobJournal) load() ([]journalEntry, error) {
	lines, err := snap.ReadFileLines(jl.path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading queue journal: %w", err)
	}
	var live []journalEntry
	index := make(map[string]int) // fp -> position in live, -1 = settled/removed
	for _, line := range lines {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil || e.FP == "" {
			continue // unknown schema: skip, never wedge the restart
		}
		if i, ok := index[e.FP]; ok && i >= 0 {
			live[i].Op = "" // superseded
		}
		switch e.Op {
		case journalAccept:
			if e.Request == nil {
				continue
			}
			index[e.FP] = len(live)
			live = append(live, e)
		case journalSettle:
			index[e.FP] = -1
		}
	}
	out := live[:0]
	for _, e := range live {
		if e.Op == journalAccept {
			out = append(out, e)
		}
	}
	return out, nil
}

// compact atomically rewrites the journal to exactly the given outstanding
// accepts. Restart calls it after replay so the journal never grows without
// bound: settled history is dropped, and what remains is precisely the work
// the new process owes. The rewrite serializes against concurrent appends on
// the same leaf lock; nothing else is ever held across it.
//
//ctcp:coldlock jl.mu is a leaf lock that exists to serialize the journal rewrite itself
func (jl *jobJournal) compact(entries []journalEntry) error {
	payloads := make([][]byte, 0, len(entries))
	for _, e := range entries {
		buf, err := json.Marshal(e)
		if err != nil {
			return err
		}
		payloads = append(payloads, buf)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := snap.WriteFileBytes(jl.path, snap.EncodeJournal(payloads)); err != nil {
		return fmt.Errorf("serve: compacting queue journal: %w", err)
	}
	return nil
}
