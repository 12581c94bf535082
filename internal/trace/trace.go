// Package trace implements the trace cache substrate of the CTCP: the trace
// construction rules the fill unit applies to the retiring instruction
// stream, the path-associative trace cache array, and the per-instruction
// profile fields that the FDRT assignment scheme stores in trace lines.
//
// A trace is up to MaxLen instructions spanning up to MaxBlocks basic blocks.
// Conditional branches embed their direction in the line; register-indirect
// control (JSR/JMP/RET) and HALT always terminate construction. On a fetch,
// a line hits only if its start PC matches and every embedded conditional
// branch agrees with the current predictions — the paper's multiple-branch
// path associativity.
package trace

import (
	"fmt"
	"math/bits"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
)

// Chain-role values for the FDRT leader/follower profile field.
const (
	RoleNone uint8 = iota
	RoleLeader
	RoleFollower
)

// Profile is the per-instruction execution history the trace cache stores
// for feedback-directed assignment: a two-bit role and a two-bit chain
// cluster (§4.2 of the paper).
type Profile struct {
	Role         uint8
	ChainCluster uint8
}

// IsMember reports whether the instruction belongs to a cluster chain.
func (p Profile) IsMember() bool { return p.Role != RoleNone }

// Slot is one instruction slot of a trace line.
type Slot struct {
	PC   uint64
	Inst isa.Inst
	// Taken records the embedded direction for conditional branches.
	Taken bool
	// SlotIndex is the physical issue-slot position (0..TotalWidth-1 of the
	// cluster geometry) the fill unit placed this instruction in. Slots
	// within a Trace are always kept in logical (program) order —
	// retirement order never changes — and the fill unit's physical
	// reordering is expressed by this field: the slot index determines
	// which cluster the instruction issues to.
	SlotIndex int
	// Cluster is the execution cluster the slot index maps to; the fill
	// unit records it when assigning.
	Cluster int
	// Profile carries the FDRT feedback fields stored with the instruction.
	Profile Profile
}

// Trace is one trace cache line.
type Trace struct {
	StartPC uint64
	// Slots in logical (program) order; physical placement is in SlotIndex.
	Slots []Slot
	// Blocks is the number of basic blocks in the trace.
	Blocks int
	// EndsIndirect marks traces terminated by register-indirect control.
	EndsIndirect bool
	// Fetches counts how many times the line was supplied by the cache.
	Fetches uint64

	// condBits caches the slot positions (logical order) holding conditional
	// branches — the slots a Lookup must check against the predictor. Inst
	// never changes after construction, so the mask is derived once on first
	// use (condKnown) and is deliberately not serialized: a restored line
	// recomputes it. Only maintained for lines of <= 64 slots; longer
	// hypothetical lines scan directly.
	condBits  uint64
	condKnown bool
}

// condMask returns the conditional-branch slot mask, deriving it on first
// use. Lines longer than 64 slots report ok=false and must scan.
//
//ctcp:inline
func (t *Trace) condMask() (mask uint64, ok bool) {
	if t.condKnown {
		return t.condBits, true
	}
	if len(t.Slots) > 64 {
		return 0, false
	}
	for i := range t.Slots {
		if t.Slots[i].Inst.IsCond() {
			mask |= 1 << uint(i)
		}
	}
	t.condBits = mask
	t.condKnown = true
	return mask, true
}

// Len returns the number of instructions in the trace.
func (t *Trace) Len() int { return len(t.Slots) }

// CheckSlotIndices panics if the physical placement is not an injective map
// into issue-slot positions 0..slots-1 — a corrupted reorder would
// silently issue two instructions to the same slot. The fill unit passes
// the geometry's total issue width: a line shorter than the machine is wide
// still spreads its instructions over every cluster's slots.
func (t *Trace) CheckSlotIndices(slots int) {
	// Up to 64 slots a bitmask covers the occupancy set; the map path
	// handles wider machines. This check runs once per built trace, on the
	// simulator's hot path.
	if slots <= 64 {
		var seen uint64
		for i := range t.Slots {
			idx := t.Slots[i].SlotIndex
			if idx < 0 || idx >= slots || seen&(1<<uint(idx)) != 0 {
				panic(fmt.Sprintf("trace: corrupt slot placement in line @%#x", t.StartPC))
			}
			seen |= 1 << uint(idx)
		}
		return
	}
	seen := make(map[int]bool, len(t.Slots))
	for i := range t.Slots {
		idx := t.Slots[i].SlotIndex
		if idx < 0 || idx >= slots || seen[idx] {
			panic(fmt.Sprintf("trace: corrupt slot placement in line @%#x", t.StartPC))
		}
		seen[idx] = true
	}
}

// Config sizes the trace cache and construction rules (Table 7: 2-way,
// 1K-entry, 3-cycle access; traces of up to 16 instructions / 3 blocks).
type Config struct {
	Lines     int // total lines
	Ways      int
	MaxLen    int // instructions per trace
	MaxBlocks int
	AccessLat int // fetch pipeline depth contribution, cycles
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Lines: 1024, Ways: 2, MaxLen: 16, MaxBlocks: 3, AccessLat: 3}
}

// Stats counts trace cache activity.
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Installs  uint64
	Replaced  uint64
	Updated   uint64 // installs that refreshed an existing path
	Evictions uint64
}

// HitRate returns hits/lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache is the path-associative trace cache.
type Cache struct {
	cfg   Config
	sets  int
	lines [][]*Trace // [set][way]
	lru   [][]uint64
	stamp uint64
	S     Stats
}

// NewCache builds the trace cache.
func NewCache(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("trace: lines %d not divisible by ways %d", cfg.Lines, cfg.Ways))
	}
	sets := cfg.Lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("trace: sets %d not a power of two", sets))
	}
	c := &Cache{cfg: cfg, sets: sets}
	c.lines = make([][]*Trace, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.lines {
		c.lines[i] = make([]*Trace, cfg.Ways)
		c.lru[i] = make([]uint64, cfg.Ways)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) set(pc uint64) int { return int((pc >> 2) & uint64(c.sets-1)) }

// Lookup returns the line starting at pc whose embedded conditional-branch
// directions all agree with pred, or nil on a miss. pred must be a pure
// prediction function (no state updates); the fetch engine trains its
// predictor separately with actual outcomes.
func (c *Cache) Lookup(pc uint64, pred func(branchPC uint64) bool) *Trace {
	c.S.Lookups++
	set := c.set(pc)
	for w, t := range c.lines[set] {
		if t == nil || t.StartPC != pc {
			continue
		}
		match := true
		if m, ok := t.condMask(); ok {
			for ; m != 0; m &= m - 1 {
				if s := &t.Slots[bits.TrailingZeros64(m)]; pred(s.PC) != s.Taken {
					match = false
					break
				}
			}
		} else {
			for i := range t.Slots {
				if s := &t.Slots[i]; s.Inst.IsCond() && pred(s.PC) != s.Taken {
					match = false
					break
				}
			}
		}
		if match {
			c.S.Hits++
			c.stamp++
			c.lru[set][w] = c.stamp
			t.Fetches++
			return t
		}
	}
	return nil
}

// Install places a constructed trace into the cache. A line with the same
// start PC and the same embedded path is replaced in place (the fill unit
// refreshing profile fields and slot order); otherwise the LRU way of the
// set is evicted. The displaced line, if any, is returned so the caller can
// recycle its storage; nothing else may hold a reference to it once Install
// returns.
func (c *Cache) Install(t *Trace) *Trace {
	c.S.Installs++
	set := c.set(t.StartPC)
	c.stamp++
	// Same-path update.
	for w, old := range c.lines[set] {
		if old != nil && old.StartPC == t.StartPC && samePath(old, t) {
			t.Fetches = old.Fetches
			c.lines[set][w] = t
			c.lru[set][w] = c.stamp
			c.S.Updated++
			return old
		}
	}
	victim, victimStamp := 0, uint64(1<<63)
	for w, old := range c.lines[set] {
		if old == nil {
			victim, victimStamp = w, 0
			break
		}
		if c.lru[set][w] < victimStamp {
			victim, victimStamp = w, c.lru[set][w]
		}
	}
	displaced := c.lines[set][victim]
	if displaced != nil {
		c.S.Evictions++
	}
	c.lines[set][victim] = t
	c.lru[set][victim] = c.stamp
	c.S.Replaced++
	return displaced
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		for w := range c.lines[i] {
			c.lines[i][w] = nil
			c.lru[i][w] = 0
		}
	}
	c.stamp = 0
	c.S = Stats{}
}

func samePath(a, b *Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i].PC != b.Slots[i].PC || a.Slots[i].Taken != b.Slots[i].Taken {
			return false
		}
	}
	return true
}

// NewSlot returns the slot the retired instruction rec fills at physical
// issue slot slotIndex of cluster, carrying profile prof. A conditional
// branch embeds its direction; other instructions embed none.
//
//ctcp:inline
func NewSlot(rec *emu.Committed, slotIndex, cluster int, prof Profile) Slot {
	return Slot{
		PC:        rec.PC,
		Inst:      rec.Inst,
		Taken:     rec.Inst.IsCond() && rec.Taken,
		SlotIndex: slotIndex,
		Cluster:   cluster,
		Profile:   prof,
	}
}

// Builder applies the trace construction rules to the retiring instruction
// stream. It keeps only the state the rules need, the length and block
// count of the trace under construction; the caller keeps that trace's
// records and builds the line when Add reports its end.
type Builder struct {
	cfg    Config
	n      int
	blocks int
}

// NewBuilder returns a builder with no trace under construction.
func NewBuilder(cfg Config) Builder {
	return Builder{cfg: cfg}
}

// Blocks returns the number of basic blocks in the trace under
// construction (0 when it is empty).
func (b *Builder) Blocks() int { return b.blocks }

// Add appends one retired instruction to the trace under construction; the
// record is only read. When the instruction ends the trace (capacity, block
// limit, a taken backward branch, indirect control, or HALT), Add returns
// the ended trace's block count, at least 1, and the builder starts the
// next trace empty; otherwise Add returns 0.
func (b *Builder) Add(rec *emu.Committed) int {
	if b.n == 0 {
		b.blocks = 1
	}
	b.n++
	// Class reads the opcode's static table entry without copying its
	// OpInfo.
	class := rec.Inst.Op.Class()
	end := rec.Inst.Op == isa.HALT || b.n >= b.cfg.MaxLen
	if class.IsControl() {
		switch {
		case class == isa.ClassJump:
			end = true
		case rec.Taken && rec.NextPC <= rec.PC:
			// Trace selection: a taken backward branch (loop closing)
			// terminates the trace so the next trace starts at the loop
			// head, keeping trace starts aligned with fetch targets.
			end = true
		case b.blocks >= b.cfg.MaxBlocks:
			// The branch ending the MaxBlocks'th block terminates the trace.
			end = true
		default:
			b.blocks++
		}
	}
	if !end {
		return 0
	}
	blocks := b.blocks
	b.n, b.blocks = 0, 0
	return blocks
}

// Dump exposes the raw line array for diagnostics and tests, and to the fill
// unit, which recycles the lines before it resets the cache.
func (c *Cache) Dump() [][]*Trace { return c.lines }
