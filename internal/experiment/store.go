package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
)

// FormatFP renders a fingerprint in its canonical form: 16 lower-case hex
// digits. Store file names, records, name entries and the service API all
// use it.
func FormatFP(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ParseFP parses a hex fingerprint (the inverse of FormatFP). It accepts any
// hex spelling of a 64-bit value; callers that need the canonical form
// compare the input against FormatFP of the result.
func ParseFP(s string) (uint64, error) {
	return strconv.ParseUint(s, 16, 64)
}

// Record is one persisted simulation result. The file is named by the run
// fingerprint (content addressing: the name *is* the identity of what was
// simulated), and the fingerprint is repeated inside the record so a renamed
// or hand-copied file can never impersonate a different run. Everything a
// human needs to audit the entry — benchmark, config name, budget, mode —
// rides along; the stats are the exact bytes-for-bytes JSON round-trip of
// the run's pipeline.Stats.
type Record struct {
	Fingerprint string          `json:"fingerprint"`
	Benchmark   string          `json:"benchmark"`
	Config      string          `json:"config"`
	Budget      uint64          `json:"budget"`
	Mode        string          `json:"mode"` // "full", "sampled", or "checkpointed"
	Stats       *pipeline.Stats `json:"stats"`
}

// Store is the content-addressed, crash-safe store of completed runs: one
// JSON record per run fingerprint, written atomically (temp+rename via
// snap.WriteFileBytes), so concurrent writers of the same fingerprint — which
// by construction hold identical payloads — and readers racing a write both
// observe a complete record or none. Checkpointed runs (ctcpbench -resume),
// ctcpsim's named saves and ctcpd share it: a directory one of them filled
// answers the others.
type Store struct {
	dir string

	hits, misses, puts atomic.Uint64
}

// OpenStore opens (creating if needed) a result store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: directory must be set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

func (st *Store) path(fp uint64) string {
	return filepath.Join(st.dir, FormatFP(fp)+".json")
}

// ckptPath names the checkpoint an unfinished checkpointed run keeps in the
// store directory.
func (st *Store) ckptPath(fp uint64) string {
	return filepath.Join(st.dir, FormatFP(fp)+".ckpt")
}

// Get returns the persisted record for fp, if a valid one exists. A missing,
// corrupt, or mislabeled (internal fingerprint disagreeing with the file
// name) record reads as a miss: the worst outcome is a redundant
// resimulation, never a wrong result.
func (st *Store) Get(fp uint64) (*Record, bool) {
	buf, err := os.ReadFile(st.path(fp))
	if err != nil {
		st.misses.Add(1)
		return nil, false
	}
	var rec Record
	if json.Unmarshal(buf, &rec) != nil || rec.Stats == nil || rec.Fingerprint != FormatFP(fp) {
		st.misses.Add(1)
		return nil, false
	}
	st.hits.Add(1)
	return &rec, true
}

// Put persists rec under its fingerprint, atomically replacing any previous
// record for the same fingerprint. The fingerprint must be canonical: a
// record Get would reject as mislabeled is refused here instead.
func (st *Store) Put(rec *Record) error {
	if rec.Stats == nil {
		return fmt.Errorf("store: refusing to persist a record without stats")
	}
	fp, err := ParseFP(rec.Fingerprint)
	if err != nil || FormatFP(fp) != rec.Fingerprint {
		return fmt.Errorf("store: record fingerprint %q is not 16 lower-case hex digits", rec.Fingerprint)
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := snap.WriteFileBytes(st.path(fp), buf); err != nil {
		return err
	}
	st.puts.Add(1)
	return nil
}

// Len counts the records currently on disk (the store has no in-memory
// index to keep consistent).
func (st *Store) Len() int {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}

// Counts reports this handle's valid reads, missed reads and writes.
func (st *Store) Counts() (hits, misses, puts uint64) {
	return st.hits.Load(), st.misses.Load(), st.puts.Load()
}
