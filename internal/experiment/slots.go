package experiment

// Named save-state slots: the user-facing product surface over the
// drained-boundary checkpoint machinery. A slot is a mid-flight simulation
// frozen under a name — savable from ctcpsim, listable/inspectable/forkable
// from ctcpsim and ctcpd — that can be resumed bit-exactly or forked into
// what-if configurations.
//
// A slot file is a snap container with a leading "slot" section holding the
// JSON metadata (benchmark, named config + deltas, budget, progress,
// lineage, fingerprints), followed by the pipeline snapshot itself. The
// fingerprints carry PR 5's stale-reuse discipline to slots: restore
// re-resolves the config from the metadata and refuses the file if the
// resolved config or run fingerprint no longer matches what was saved, so a
// slot can never be silently reinterpreted under drifted configuration
// tables. Forking re-fingerprints the delta configuration, and the pipeline
// snapshot's own Expect fields reject deltas that change restore-relevant
// geometry (strategy, cluster count/width, fetch width, ROB size) — only
// latency what-ifs (hop latency, forwarding-latency knobs) are forkable,
// which is exactly the class of questions a mid-run fork can answer.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

// SlotConfig names a pipeline configuration as a base from StrategyConfigs
// plus restore-compatible what-if deltas. The zero deltas mean "inherit the
// base value".
type SlotConfig struct {
	// Base is a StrategyConfigs name: base, friendly, friendly-mid, fdrt,
	// fdrt-nopin, issue0, issue4.
	Base string `json:"base"`
	// Hop overrides the inter-cluster hop latency when > 0.
	Hop int `json:"hop,omitempty"`
	// The Figure-5 forwarding-latency knobs.
	ZeroAllFwd     bool `json:"zero_all_fwd,omitempty"`
	ZeroCritFwd    bool `json:"zero_crit_fwd,omitempty"`
	ZeroIntraTrace bool `json:"zero_intra_trace,omitempty"`
	ZeroInterTrace bool `json:"zero_inter_trace,omitempty"`
}

// Resolve materializes the full pipeline configuration, validating both the
// base name and the combined knobs (e.g. ZeroAllFwd excludes the selective
// knobs — an invalid delta fails here, before any file is touched).
func (sc SlotConfig) Resolve() (pipeline.Config, error) {
	cfgs := StrategyConfigs()
	cfg, ok := cfgs[sc.Base]
	if !ok {
		names := make([]string, 0, len(cfgs))
		for name := range cfgs { //ctcp:lint-ok maporder -- keys are collected and sorted before use
			names = append(names, name)
		}
		sort.Strings(names)
		return pipeline.Config{}, fmt.Errorf("slot: unknown base config %q (one of: %s)", sc.Base, strings.Join(names, ", "))
	}
	if sc.Hop < 0 {
		return pipeline.Config{}, fmt.Errorf("slot: negative hop latency %d", sc.Hop)
	}
	if sc.Hop > 0 {
		cfg.Geom.HopLat = sc.Hop
	}
	cfg.ZeroAllFwdLat = sc.ZeroAllFwd
	cfg.ZeroCritFwdLat = sc.ZeroCritFwd
	cfg.ZeroIntraTrace = sc.ZeroIntraTrace
	cfg.ZeroInterTrace = sc.ZeroInterTrace
	if err := cfg.Validate(); err != nil {
		return pipeline.Config{}, fmt.Errorf("slot: invalid config delta: %w", err)
	}
	return cfg, nil
}

// SlotMeta describes one saved slot. RunFP/CfgFP are the stale-reuse
// guards: hex fingerprints of the run identity (benchmark + config +
// budget, via RunFingerprint) and of the resolved pipeline configuration.
type SlotMeta struct {
	Name      string     `json:"name"`
	Benchmark string     `json:"benchmark"`
	Config    SlotConfig `json:"config"`
	Budget    uint64     `json:"budget"`
	// Consumed/Cycle locate the save point: committed instructions consumed
	// and the pipeline cycle at the drained boundary.
	Consumed uint64 `json:"consumed"`
	Cycle    int64  `json:"cycle"`
	// Segments counts the drained boundaries this lineage has paused at.
	Segments uint64 `json:"segments"`
	// Parent names the slot this one was forked from ("" for a root save).
	Parent string `json:"parent,omitempty"`
	RunFP  string `json:"run_fingerprint"`
	CfgFP  string `json:"config_fingerprint"`
}

// fingerprints computes the canonical fingerprint pair for the metadata.
func (m SlotMeta) fingerprints() (runFP, cfgFP string, err error) {
	cfg, err := m.Config.Resolve()
	if err != nil {
		return "", "", err
	}
	fp := RunFingerprint(m.Benchmark, cfg, Options{Budget: m.Budget})
	return FormatFP(fp), FormatFP(cfg.Fingerprint()), nil
}

// SlotStore manages named slots in one directory (one <name>.slot file
// each, written atomically through snap.WriteFile).
//
// Forks serialize per destination name through a reservation (busy set)
// rather than a lock held across the work: the mutex only guards the
// reservation bookkeeping, never the restore/resimulate/save I/O, so List,
// Inspect, and forks of other destinations stay responsive while a fork is
// in flight.
type SlotStore struct {
	dir string

	mu   sync.Mutex
	busy map[string]bool // destination names reserved by in-flight forks

	// forkHook, when set (tests only), runs after the destination is
	// reserved and checked but before the restore begins.
	forkHook func()
}

// OpenSlots opens (creating if needed) a slot directory.
func OpenSlots(dir string) (*SlotStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("slot: empty slot directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &SlotStore{dir: dir, busy: make(map[string]bool)}, nil
}

// Dir returns the store's directory.
func (st *SlotStore) Dir() string { return st.dir }

// validSlotName restricts names to path-safe tokens so a slot name can
// never escape the store directory.
func validSlotName(name string) error {
	if name == "" || len(name) > 100 {
		return fmt.Errorf("slot: name must be 1..100 characters")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return fmt.Errorf("slot: name %q contains %q (allowed: letters, digits, - _ .)", name, c)
		}
	}
	if name[0] == '.' {
		return fmt.Errorf("slot: name %q must not start with a dot", name)
	}
	return nil
}

func (st *SlotStore) path(name string) (string, error) {
	if err := validSlotName(name); err != nil {
		return "", err
	}
	return filepath.Join(st.dir, name+".slot"), nil
}

// Save freezes p — which must be paused at a drained RunTo boundary — into
// the named slot, overwriting any previous save under that name. The
// caller's meta supplies identity (Name, Benchmark, Config, Budget,
// lineage); Save stamps progress from the pipeline and recomputes both
// fingerprints from the metadata, and requires the pipeline to actually
// match the declared config (same resolved fingerprint class), since the
// restore path will rebuild the pipeline from the metadata alone.
func (st *SlotStore) Save(meta SlotMeta, p *pipeline.Pipeline) (SlotMeta, error) {
	path, err := st.path(meta.Name)
	if err != nil {
		return SlotMeta{}, err
	}
	if _, ok := workload.ByName(meta.Benchmark); !ok {
		return SlotMeta{}, fmt.Errorf("slot: unknown benchmark %q", meta.Benchmark)
	}
	meta.Consumed = p.Consumed()
	meta.Cycle = p.CurrentCycle()
	if meta.Segments == 0 {
		meta.Segments = 1
	}
	meta.RunFP, meta.CfgFP, err = meta.fingerprints()
	if err != nil {
		return SlotMeta{}, err
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return SlotMeta{}, err
	}
	w := snap.NewWriter()
	w.Begin("slot")
	w.String(string(blob))
	w.End()
	p.Snapshot(w)
	if err := snap.WriteFile(path, w); err != nil {
		return SlotMeta{}, fmt.Errorf("slot: saving %q: %w", meta.Name, err)
	}
	return meta, nil
}

// readMeta decodes the leading metadata section. When rest is false the
// remainder of the container is discarded and the reader closed.
func readMeta(path string, rest bool) (SlotMeta, *snap.Reader, error) {
	r, err := snap.ReadFile(path)
	if err != nil {
		return SlotMeta{}, nil, err
	}
	r.Begin("slot")
	blob := r.String()
	r.End()
	if err := r.Err(); err != nil {
		return SlotMeta{}, nil, fmt.Errorf("slot: reading %s: %w", path, err)
	}
	var meta SlotMeta
	if err := json.Unmarshal([]byte(blob), &meta); err != nil {
		return SlotMeta{}, nil, fmt.Errorf("slot: metadata in %s: %w", path, err)
	}
	if !rest {
		return meta, nil, r.DiscardRest()
	}
	return meta, r, nil
}

// List returns the metadata of every slot in the store, sorted by name.
func (st *SlotStore) List() ([]SlotMeta, error) {
	paths, err := filepath.Glob(filepath.Join(st.dir, "*.slot"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]SlotMeta, 0, len(paths))
	for _, path := range paths {
		meta, _, err := readMeta(path, false)
		if err != nil {
			return nil, err
		}
		out = append(out, meta)
	}
	return out, nil
}

// Inspect returns one slot's metadata.
func (st *SlotStore) Inspect(name string) (SlotMeta, error) {
	path, err := st.path(name)
	if err != nil {
		return SlotMeta{}, err
	}
	meta, _, err := readMeta(path, false)
	if err != nil {
		return SlotMeta{}, err
	}
	return meta, nil
}

// verifyFingerprints re-derives the fingerprint pair from the metadata and
// refuses a slot whose identity no longer reproduces — the slot-level
// instance of the stale-reuse guard: a drifted config registry or changed
// fingerprint schema must force an error, never a silent reinterpretation.
func verifyFingerprints(meta SlotMeta) error {
	runFP, cfgFP, err := meta.fingerprints()
	if err != nil {
		return err
	}
	if meta.CfgFP != cfgFP {
		return fmt.Errorf("slot %q: config fingerprint %s does not reproduce (now %s): refusing stale reuse", meta.Name, meta.CfgFP, cfgFP)
	}
	if meta.RunFP != runFP {
		return fmt.Errorf("slot %q: run fingerprint %s does not reproduce (now %s): refusing stale reuse", meta.Name, meta.RunFP, runFP)
	}
	return nil
}

// VerifySlot re-derives the fingerprint pair from a slot's metadata and
// returns the stale-reuse error when the identity no longer reproduces.
// Exported so API layers can distinguish a stale source slot from an invalid
// fork delta when reporting errors.
func VerifySlot(meta SlotMeta) error { return verifyFingerprints(meta) }

// restoreInto rebuilds a pipeline for meta under cfg and restores the slot
// image into it. Incompatible configurations surface as snap Expect errors.
func restoreInto(path string, meta SlotMeta, cfg pipeline.Config) (m *emu.Machine, p *pipeline.Pipeline, err error) {
	bm, ok := workload.ByName(meta.Benchmark)
	if !ok {
		return nil, nil, fmt.Errorf("slot %q: unknown benchmark %q", meta.Name, meta.Benchmark)
	}
	defer func() {
		if r := recover(); r != nil {
			ie, isInv := r.(*core.InvariantError)
			if !isInv {
				panic(r)
			}
			m, p, err = nil, nil, fmt.Errorf("slot %q: %w", meta.Name, ie)
		}
	}()
	cfg.MaxInsts = 0
	m = emu.New(bm.ProgramFor(meta.Budget))
	p = pipeline.New(&emu.LimitStream{S: m, Budget: meta.Budget}, cfg)
	_, r, err := readMeta(path, true)
	if err != nil {
		return nil, nil, err
	}
	p.Restore(r)
	if err := r.Close(); err != nil {
		return nil, nil, fmt.Errorf("slot %q: restoring: %w", meta.Name, err)
	}
	return m, p, nil
}

// Restore rebuilds the named slot's pipeline, ready to continue via
// RunTo/Finish exactly where Save left it. The returned machine is the
// pipeline's functional emulator (its architectural end state belongs to
// the continuation). Restore can be called any number of times; each call
// yields an independent continuation.
func (st *SlotStore) Restore(name string) (SlotMeta, *emu.Machine, *pipeline.Pipeline, error) {
	path, err := st.path(name)
	if err != nil {
		return SlotMeta{}, nil, nil, err
	}
	meta, _, err := readMeta(path, false)
	if err != nil {
		return SlotMeta{}, nil, nil, err
	}
	if err := verifyFingerprints(meta); err != nil {
		return SlotMeta{}, nil, nil, err
	}
	cfg, err := meta.Config.Resolve()
	if err != nil {
		return SlotMeta{}, nil, nil, err
	}
	m, p, err := restoreInto(path, meta, cfg)
	if err != nil {
		return SlotMeta{}, nil, nil, err
	}
	return meta, m, p, nil
}

// Fork branches the named slot into dst under a what-if configuration
// delta: the checkpoint image is restored under the delta's resolved
// configuration (the pipeline snapshot's Expect fields reject deltas that
// change restore-relevant geometry such as the strategy), re-fingerprinted,
// and saved as a new slot with Parent lineage. The source slot is
// untouched; Fork refuses to overwrite an existing destination.
func (st *SlotStore) Fork(src, dst string, delta SlotConfig) (SlotMeta, error) {
	if src == dst {
		return SlotMeta{}, fmt.Errorf("slot: fork source and destination are both %q", src)
	}
	dstPath, err := st.path(dst)
	if err != nil {
		return SlotMeta{}, err
	}
	// Reserve the destination name before touching the disk. The
	// reservation — not a lock held across the restore — is what makes two
	// concurrent forks of the same destination race-free: exactly one
	// reserves, the other is refused immediately, and the exists-check below
	// runs off-lock under the reservation's protection.
	st.mu.Lock()
	if st.busy == nil {
		st.busy = make(map[string]bool)
	}
	if st.busy[dst] {
		st.mu.Unlock()
		return SlotMeta{}, fmt.Errorf("slot: destination %q already being forked", dst)
	}
	st.busy[dst] = true
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		delete(st.busy, dst)
		st.mu.Unlock()
	}()
	if _, err := os.Stat(dstPath); err == nil {
		return SlotMeta{}, fmt.Errorf("slot: destination %q already exists", dst)
	}
	if st.forkHook != nil {
		st.forkHook()
	}
	srcPath, err := st.path(src)
	if err != nil {
		return SlotMeta{}, err
	}
	meta, _, err := readMeta(srcPath, false)
	if err != nil {
		return SlotMeta{}, err
	}
	if err := verifyFingerprints(meta); err != nil {
		return SlotMeta{}, err
	}
	cfg, err := delta.Resolve()
	if err != nil {
		return SlotMeta{}, err
	}
	_, p, err := restoreInto(srcPath, meta, cfg)
	if err != nil {
		return SlotMeta{}, fmt.Errorf("incompatible config delta for fork: %w", err)
	}
	fork := SlotMeta{
		Name:      dst,
		Benchmark: meta.Benchmark,
		Config:    delta,
		Budget:    meta.Budget,
		Segments:  meta.Segments,
		Parent:    src,
	}
	return st.Save(fork, p)
}

// Remove deletes the named slot.
func (st *SlotStore) Remove(name string) error {
	path, err := st.path(name)
	if err != nil {
		return err
	}
	return os.Remove(path)
}
