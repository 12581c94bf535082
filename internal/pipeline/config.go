// Package pipeline is the cycle-level timing model of the clustered trace
// cache processor. It consumes the committed instruction stream produced by
// the functional emulator (the paper's sim-fast interface), models the
// front end (trace cache + instruction cache fetch, hybrid branch
// prediction, decode/rename), slot-based or issue-time cluster steering,
// per-cluster reservation stations and special-purpose functional units,
// distance-dependent inter-cluster data forwarding, the data-memory system
// (store buffer with load forwarding, conservative load disambiguation,
// nonblocking caches), and in-order retirement feeding the fill unit.
package pipeline

import (
	"fmt"

	"ctcp/internal/bpred"
	"ctcp/internal/cachesim"
	"ctcp/internal/cluster"
	"ctcp/internal/core"
	"ctcp/internal/trace"
)

// Config collects every architectural parameter of Table 7 plus the latency
// experiment knobs of Figure 5.
type Config struct {
	Strategy core.StrategyKind
	// DisableChains ablates FDRT's inter-trace chain feedback (§5.3).
	DisableChains bool
	Geom          cluster.Geometry
	RS            cluster.RSConfig

	ROBSize     int
	FetchWidth  int // also decode/rename/retire width (Table 7: 16)
	RetireWidth int

	FetchStages  int // trace cache / icache access depth (3)
	DecodeStages int
	RenameStages int
	// SteerStages is the extra issue-time dependency-analysis/steering/
	// routing latency charged when Strategy.SteersAtIssue() (0 = ideal,
	// 4 = realistic; §2.3).
	SteerStages int
	RFLat       int // register file read latency (2)

	Trace trace.Config
	BP    bpred.Config
	Mem   cachesim.HierarchyConfig

	ICache        cachesim.Config
	ICacheMissLat int // extra fetch cycles on an L1I miss (unified L2 service)
	BTBMissBubble int // fetch bubble when a taken branch misses the BTB

	StoreBuffer int // entries (32)
	LoadQueue   int // entries (32)

	// Figure 5 latency-removal experiment knobs.
	ZeroAllFwdLat  bool // all data forwarding is same-cycle
	ZeroCritFwdLat bool // only the last-arriving (critical) forward is free
	ZeroIntraTrace bool // intra-trace (same fetch group) forwards are free
	ZeroInterTrace bool // inter-trace forwards are free
	// MaxInsts bounds the committed instructions consumed (0 = run the
	// stream dry).
	MaxInsts uint64
	// RetireHook, when non-nil, observes every retired instruction in
	// program order with the same record the fill unit receives. It exists
	// for differential testing and external tracing; it must not retain the
	// RetireInfo's pointers beyond the call. internal/conformance builds the
	// retirement-stream half of the ISA conformance contract on this hook:
	// the observed records must be byte-identical to the emulator's own
	// committed stream under every strategy (see DESIGN.md §11).
	RetireHook func(core.RetireInfo)
}

// Validate audits every exported field before a Config reaches the cycle
// model, so a zero ROB size or a negative latency fails as a named
// configuration error instead of a mid-run invariant panic. New calls it and
// panics *core.InvariantError on failure; the run boundary (RunProgramErr)
// recovers that into a typed error. The configvalidate lint rule enforces
// that every exported field is referenced here — fields with genuinely no
// invariant carry an explicit `_ = c.Field` audit so additions cannot be
// silently skipped.
func (c Config) Validate() error {
	if c.Strategy < core.Base || c.Strategy > core.FDRTNoPin {
		return fmt.Errorf("config: unknown strategy %d", int(c.Strategy))
	}
	if c.DisableChains && !c.Strategy.UsesChains() {
		return fmt.Errorf("config: DisableChains is meaningless for strategy %v (no chain feedback to ablate)", c.Strategy)
	}
	if err := validateGeometry(c.Geom); err != nil {
		return err
	}
	if c.RS.Entries <= 0 || c.RS.WritePorts <= 0 {
		return fmt.Errorf("config: reservation stations need positive Entries and WritePorts (got %d, %d)", c.RS.Entries, c.RS.WritePorts)
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("config: ROBSize %d must be positive", c.ROBSize)
	}
	if c.FetchWidth <= 0 {
		return fmt.Errorf("config: FetchWidth %d must be positive", c.FetchWidth)
	}
	if c.RetireWidth <= 0 {
		return fmt.Errorf("config: RetireWidth %d must be positive", c.RetireWidth)
	}
	if c.FetchStages < 0 || c.DecodeStages < 0 || c.RenameStages < 0 || c.SteerStages < 0 {
		return fmt.Errorf("config: negative stage count (fetch %d, decode %d, rename %d, steer %d)",
			c.FetchStages, c.DecodeStages, c.RenameStages, c.SteerStages)
	}
	if c.RFLat < 0 {
		return fmt.Errorf("config: RFLat %d must be non-negative", c.RFLat)
	}
	if err := validateTrace(c.Trace); err != nil {
		return err
	}
	if slots := c.Geom.TotalWidth(); c.Trace.MaxLen > slots {
		// The fill unit assigns every instruction of a trace its own issue
		// slot; a longer trace cannot be materialized.
		return fmt.Errorf("config: trace MaxLen %d exceeds the %d issue slots of %d clusters × %d",
			c.Trace.MaxLen, slots, c.Geom.Clusters, c.Geom.Width)
	}
	if err := validateBP(c.BP); err != nil {
		return err
	}
	if err := validateHierarchy(c.Mem); err != nil {
		return err
	}
	if err := validateCache("ICache", c.ICache); err != nil {
		return err
	}
	if c.ICacheMissLat < 0 {
		return fmt.Errorf("config: ICacheMissLat %d must be non-negative", c.ICacheMissLat)
	}
	if c.BTBMissBubble < 0 {
		return fmt.Errorf("config: BTBMissBubble %d must be non-negative", c.BTBMissBubble)
	}
	if c.StoreBuffer <= 0 {
		return fmt.Errorf("config: StoreBuffer %d must be positive", c.StoreBuffer)
	}
	if c.LoadQueue <= 0 {
		return fmt.Errorf("config: LoadQueue %d must be positive", c.LoadQueue)
	}
	if c.ZeroAllFwdLat && (c.ZeroCritFwdLat || c.ZeroIntraTrace || c.ZeroInterTrace) {
		return fmt.Errorf("config: ZeroAllFwdLat subsumes the selective forwarding knobs; set one or the other")
	}
	// No invariant: any committed-instruction budget and any hook (or none)
	// are legal.
	_ = c.MaxInsts
	_ = c.RetireHook
	return nil
}

func validateGeometry(g cluster.Geometry) error {
	if g.Clusters <= 0 || g.Width <= 0 {
		return fmt.Errorf("config: geometry needs positive Clusters and Width (got %d, %d)", g.Clusters, g.Width)
	}
	if g.HopLat < 0 || g.IntraLat < 0 {
		return fmt.Errorf("config: geometry latencies must be non-negative (hop %d, intra %d)", g.HopLat, g.IntraLat)
	}
	return nil
}

func validateTrace(t trace.Config) error {
	if t.Lines <= 0 || t.Ways <= 0 || t.MaxLen <= 0 || t.MaxBlocks <= 0 {
		return fmt.Errorf("config: trace cache needs positive Lines/Ways/MaxLen/MaxBlocks (got %d/%d/%d/%d)",
			t.Lines, t.Ways, t.MaxLen, t.MaxBlocks)
	}
	if t.AccessLat < 0 {
		return fmt.Errorf("config: trace cache AccessLat %d must be non-negative", t.AccessLat)
	}
	return nil
}

func validateBP(b bpred.Config) error {
	if b.BimodalEntries <= 0 || b.GshareEntries <= 0 || b.ChooserEntries <= 0 {
		return fmt.Errorf("config: branch predictor tables need positive sizes (bimodal %d, gshare %d, chooser %d)",
			b.BimodalEntries, b.GshareEntries, b.ChooserEntries)
	}
	if b.HistoryBits <= 0 || b.HistoryBits > 32 {
		return fmt.Errorf("config: HistoryBits %d out of range (1..32)", b.HistoryBits)
	}
	if b.BTBEntries <= 0 || b.BTBWays <= 0 || b.BTBEntries%b.BTBWays != 0 {
		return fmt.Errorf("config: BTB needs positive entries divisible by ways (got %d entries, %d ways)", b.BTBEntries, b.BTBWays)
	}
	if b.RASEntries <= 0 {
		return fmt.Errorf("config: RASEntries %d must be positive", b.RASEntries)
	}
	return nil
}

func validateHierarchy(h cachesim.HierarchyConfig) error {
	if err := validateCache("L1D", h.L1); err != nil {
		return err
	}
	if err := validateCache("L2", h.L2); err != nil {
		return err
	}
	if err := validateCache("TLB", h.TLB); err != nil {
		return err
	}
	if h.L1HitLat < 0 || h.TLBHitLat < 0 || h.TLBMissLat < 0 || h.L2Lat < 0 || h.MemLat < 0 {
		return fmt.Errorf("config: memory latencies must be non-negative")
	}
	if h.MSHRs <= 0 || h.Ports <= 0 {
		return fmt.Errorf("config: hierarchy needs positive MSHRs and Ports (got %d, %d)", h.MSHRs, h.Ports)
	}
	return nil
}

// validateCache mirrors cachesim.New's panics as errors so a bad geometry is
// reported before any model state is built.
func validateCache(name string, cfg cachesim.Config) error {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return fmt.Errorf("config: %s sets %d not a positive power of two", name, cfg.Sets)
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return fmt.Errorf("config: %s line size %d not a positive power of two", name, cfg.LineSize)
	}
	if cfg.Ways <= 0 {
		return fmt.Errorf("config: %s ways %d must be positive", name, cfg.Ways)
	}
	return nil
}

// DefaultConfig returns the paper's baseline CTCP (Table 7): 16-wide, four
// four-wide clusters on a chain interconnect with 2-cycle hops.
func DefaultConfig() Config {
	return Config{
		Strategy:     core.Base,
		Geom:         cluster.DefaultGeometry(),
		RS:           cluster.DefaultRSConfig(),
		ROBSize:      128,
		FetchWidth:   16,
		RetireWidth:  16,
		FetchStages:  3,
		DecodeStages: 1,
		RenameStages: 1,
		SteerStages:  0,
		RFLat:        2,
		Trace:        trace.DefaultConfig(),
		BP:           bpred.Default(),
		Mem:          cachesim.DefaultHierarchy(),
		ICache: cachesim.Config{
			Name: "L1I", Sets: 4 * cachesim.KB / 64 / 4, Ways: 4, LineSize: 64,
		},
		ICacheMissLat: 8,
		BTBMissBubble: 2,
		StoreBuffer:   32,
		LoadQueue:     32,
	}
}

// WithStrategy returns a copy configured for the given strategy, charging
// the realistic steering latency for issue-time steering unless idealLatency
// is requested.
func (c Config) WithStrategy(k core.StrategyKind, idealIssueLatency bool) Config {
	c.Strategy = k
	if k.SteersAtIssue() && !idealIssueLatency {
		// Four cycles of dependency analysis, steering and routing for a
		// 16-wide machine; halved for the 8-wide two-cluster variant.
		c.SteerStages = 4
		if c.Geom.TotalWidth() <= 8 {
			c.SteerStages = 2
		}
	} else {
		c.SteerStages = 0
	}
	return c
}
