// Package cachesim models the CTCP memory-system substrates: set-associative
// caches with LRU replacement, a TLB (a cache of page translations), and a
// nonblocking miss pipeline with a bounded set of MSHRs. Latencies follow
// Table 7 of the paper; the timing pipeline composes these components into
// load/store completion times.
package cachesim

import "fmt"

// Config describes one cache array.
type Config struct {
	Name     string
	Sets     int // number of sets (power of two)
	Ways     int
	LineSize int // bytes (power of two)
}

// KB is a size helper for configuration literals.
const KB = 1024

// Stats holds access counters.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative array with true-LRU replacement. It tracks tags
// only: the simulator never stores data in cache models because the
// functional emulator is the source of truth for values.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	tags      []uint64 // sets*ways; 0 means empty (tag 0 stored as tag|present)
	present   []bool
	lruStamp  []uint64
	nextStamp uint64
	S         Stats
}

// New builds a cache; it panics on non-power-of-two geometry, which is a
// configuration bug, not a runtime condition.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s: sets %d not a power of two", cfg.Name, cfg.Sets))
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cachesim: %s: ways %d", cfg.Name, cfg.Ways))
	}
	c := &Cache{cfg: cfg, setMask: uint64(cfg.Sets - 1)}
	for c.cfg.LineSize>>c.lineShift > 1 {
		c.lineShift++
	}
	c.Reset()
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.cfg.Sets * c.cfg.Ways * c.cfg.LineSize }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> uint(log2(c.cfg.Sets))
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Probe reports whether addr currently hits, without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.present[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Access performs a reference to addr: on a hit it refreshes LRU order; on a
// miss it fills the line, evicting the LRU way. It returns whether the access
// hit.
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	c.S.Accesses++
	c.nextStamp++
	victim, victimStamp := base, c.lruStamp[base]
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.present[i] && c.tags[i] == tag {
			c.lruStamp[i] = c.nextStamp
			return true
		}
		if !c.present[i] {
			victim, victimStamp = i, 0
		} else if c.lruStamp[i] < victimStamp {
			victim, victimStamp = i, c.lruStamp[i]
		}
	}
	c.S.Misses++
	c.tags[victim] = tag
	c.present[victim] = true
	c.lruStamp[victim] = c.nextStamp
	return false
}

// Invalidate drops the line containing addr if present.
func (c *Cache) Invalidate(addr uint64) {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.present[base+w] && c.tags[base+w] == tag {
			c.present[base+w] = false
		}
	}
}

// Reset clears contents and statistics, returning the cache to the state New
// builds. The arrays are cleared in place; they are only reallocated when a
// failed decode left them at the wrong size. The tags are cleared too, even
// though an absent way's tag is never read, because Checkpoint encodes them:
// a reset cache must encode the same bytes as a new one.
func (c *Cache) Reset() {
	n := c.cfg.Sets * c.cfg.Ways
	if len(c.tags) != n || len(c.present) != n || len(c.lruStamp) != n {
		c.tags = make([]uint64, n)
		c.present = make([]bool, n)
		c.lruStamp = make([]uint64, n)
	} else {
		clear(c.tags)
		clear(c.present)
		clear(c.lruStamp)
	}
	c.nextStamp = 0
	c.S = Stats{}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}
