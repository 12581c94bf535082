package experiment

// Named saves: ctcpsim's -save/-resume/-saves verbs. A name is one index
// entry, <dir>/<name>.name, pointing at a checkpointed run's fingerprint.
// Everything behind it is the runner's own: the checkpoint is <fp>.ckpt and
// the result is the <fp>.json Store record, so ctcpbench -resume and ctcpd
// over the same directory see — and may finish — the same run.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// Name statuses: the named run is paused at a checkpoint, finished into a
// store record, or has neither on disk.
const (
	NameCheckpoint = "checkpoint"
	NameDone       = "done"
	NameMissing    = "missing"
)

// NameEntry is one name-index entry. Config is a StrategyConfigs key and
// Every the run's checkpoint spacing, whose first boundary is the save point.
type NameEntry struct {
	Name        string `json:"-"`
	Benchmark   string `json:"benchmark"`
	Config      string `json:"config"`
	Budget      uint64 `json:"budget"`
	Every       uint64 `json:"every"`
	Fingerprint string `json:"fingerprint"`
	Status      string `json:"-"` // derived from the store on read
}

// validName restricts names to path-safe tokens so a name from the command
// line can never escape the store directory.
func validName(name string) error {
	if name == "" || len(name) > 100 {
		return fmt.Errorf("name must be 1..100 characters")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return fmt.Errorf("name %q contains %q (allowed: letters, digits, - _ .)", name, c)
		}
	}
	if name[0] == '.' {
		return fmt.Errorf("name %q must not start with a dot", name)
	}
	return nil
}

// nameRun resolves an entry into the checkpointed runner call it names.
func (st *Store) nameRun(e NameEntry) (workload.Benchmark, pipeline.Config, Options, error) {
	bm, ok := workload.ByName(e.Benchmark)
	if !ok {
		return bm, pipeline.Config{}, Options{}, fmt.Errorf("unknown benchmark %q", e.Benchmark)
	}
	cfg, ok := StrategyConfigs()[e.Config]
	if !ok {
		return bm, cfg, Options{}, fmt.Errorf("unknown config %q", e.Config)
	}
	return bm, cfg, Options{Budget: e.Budget, CheckpointDir: st.dir, CheckpointEvery: e.Every}, nil
}

// SaveName runs bench under config as a checkpointed run in st and stops it
// at its first checkpoint, at committed instructions (0 = the runner's
// default spacing, budget/4); the runner writes the checkpoint. A run that
// finishes before at leaves its store record instead, and one already
// checkpointed in st continues to its next boundary. The returned entry's
// Status says which.
func SaveName(st *Store, name, bench, config string, budget, at uint64) (NameEntry, error) {
	if err := validName(name); err != nil {
		return NameEntry{}, err
	}
	if budget == 0 {
		budget = DefaultBudget
	}
	e := NameEntry{Name: name, Benchmark: bench, Config: config, Budget: budget, Every: at}
	bm, cfg, opts, err := st.nameRun(e)
	if err != nil {
		return NameEntry{}, err
	}
	e.Fingerprint = FormatFP(RunFingerprint(bench, cfg, opts))
	stop := make(chan struct{})
	var once sync.Once
	opts.Interrupt = stop
	opts.Progress = func(ev ProgressEvent) {
		if ev.Kind == RunSegment {
			once.Do(func() { close(stop) })
		}
	}
	if _, err := NewRunner(opts).RunErr(bm, config, cfg); err != nil && !errors.Is(err, ErrInterrupted) {
		return NameEntry{}, fmt.Errorf("saving %q: %w", name, err)
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return NameEntry{}, err
	}
	if err := snap.WriteFileBytes(st.namePath(name), buf); err != nil {
		return NameEntry{}, err
	}
	return st.readName(name)
}

// ResumeName finishes the named run: from the store record when it already
// finished (so every resume after the first is answered by st), otherwise
// through the checkpointed runner from its checkpoint. It refuses an entry
// whose fields no longer reproduce its fingerprint (tampered, or drifted
// configuration tables) and a run with neither checkpoint nor record, which
// would silently simulate from scratch.
func ResumeName(st *Store, name string) (NameEntry, *pipeline.Stats, error) {
	e, err := st.readName(name)
	if err != nil {
		return e, nil, err
	}
	bm, cfg, opts, err := st.nameRun(e)
	if err != nil {
		return e, nil, fmt.Errorf("name %q: %w", name, err)
	}
	fp := RunFingerprint(e.Benchmark, cfg, opts)
	if FormatFP(fp) != e.Fingerprint {
		return e, nil, fmt.Errorf("name %q: fingerprint %s does not reproduce (now %s): refusing stale reuse", name, e.Fingerprint, FormatFP(fp))
	}
	if rec, ok := st.Get(fp); ok {
		return e, rec.Stats, nil
	}
	if _, err := os.Stat(st.ckptPath(fp)); err != nil {
		return e, nil, fmt.Errorf("name %q: run %s has no checkpoint or result in the store", name, e.Fingerprint)
	}
	s, err := NewRunner(opts).RunErr(bm, e.Config, cfg)
	return e, s, err
}

// Names lists st's entries sorted by name, each with its run's status.
func Names(st *Store) ([]NameEntry, error) {
	paths, err := filepath.Glob(filepath.Join(st.dir, "*.name"))
	if err != nil {
		return nil, err
	}
	out := make([]NameEntry, 0, len(paths))
	for _, path := range paths {
		e, err := st.readName(strings.TrimSuffix(filepath.Base(path), ".name"))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func (st *Store) namePath(name string) string { return filepath.Join(st.dir, name+".name") }

// readName loads one entry and derives its status from the files on disk.
func (st *Store) readName(name string) (NameEntry, error) {
	if err := validName(name); err != nil {
		return NameEntry{}, err
	}
	buf, err := os.ReadFile(st.namePath(name))
	if err != nil {
		return NameEntry{}, fmt.Errorf("name %q: %w", name, err)
	}
	var e NameEntry
	if err := json.Unmarshal(buf, &e); err != nil {
		return NameEntry{}, fmt.Errorf("name %q: %w", name, err)
	}
	e.Name, e.Status = name, NameMissing
	if fp, err := ParseFP(e.Fingerprint); err == nil {
		if _, err := os.Stat(st.path(fp)); err == nil {
			e.Status = NameDone
		} else if _, err := os.Stat(st.ckptPath(fp)); err == nil {
			e.Status = NameCheckpoint
		}
	}
	return e, nil
}
