// Package cache implements the set-associative, write-back cache of the
// memory-encryption engine: the 256 KB counter cache of Table 2. The
// processor's L1/L2/L3 hierarchy is not simulated: the workload profiles
// generate the post-LLC request stream directly, and Table 2's cache rows
// are configuration text.
package cache

import (
	"fmt"
	"math/bits"

	"obfusmem/internal/sim"
)

// State is a line's MESI state.
type State int

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

type line struct {
	tag   uint64
	state State
	lru   uint64
}

// Config sizes a cache.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	BlockBytes int
	HitLatency sim.Time
}

// CounterCacheConfig is Table 2's counter cache.
var CounterCacheConfig = Config{Name: "CtrCache", SizeBytes: 256 << 10, Assoc: 8,
	BlockBytes: 64, HitLatency: 5 * cpuCycle}

// cpuCycle is the 2 GHz core clock period.
const cpuCycle = 500 * sim.Picosecond

// CPUCycle exposes the core clock period used for cache latencies.
const CPUCycle = cpuCycle

// Eviction describes a victim pushed out by an Insert.
type Eviction struct {
	Addr  uint64
	Dirty bool
}

// Cache is one set-associative, write-back, write-allocate cache with true
// LRU replacement.
type Cache struct {
	sets      [][]line
	numSets   int
	blockBits uint
	setMask   uint64
	clock     uint64
}

// New builds a cache. Size, associativity, and block size must be powers of
// two and consistent.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.BlockBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	numSets := blocks / cfg.Assoc
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, numSets))
	}
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic("cache: block size not a power of two")
	}
	c := &Cache{
		numSets:   numSets,
		blockBits: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:   uint64(numSets - 1),
	}
	c.sets = make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blockBits
	return int(blk & c.setMask), blk >> uint(bits.TrailingZeros(uint(c.numSets)))
}

// Lookup probes without allocating. It returns the line state (Invalid on
// miss); touch marks a hit most recently used.
func (c *Cache) Lookup(addr uint64, touch bool) State {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.state != Invalid && l.tag == tag {
			if touch {
				c.clock++
				l.lru = c.clock
			}
			return l.state
		}
	}
	return Invalid
}

// Insert allocates a line in the given state. When a valid victim had to
// be displaced, evicted is true and ev describes it; Insert runs on every
// counter-cache fill, so the victim is returned by value rather than
// heap-allocated.
func (c *Cache) Insert(addr uint64, s State) (ev Eviction, evicted bool) {
	if s == Invalid {
		panic("cache: inserting an Invalid line")
	}
	set, tag := c.index(addr)
	// Already present: just transition.
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.state != Invalid && l.tag == tag {
			l.state = s
			c.clock++
			l.lru = c.clock
			return Eviction{}, false
		}
	}
	// Find an invalid way or the LRU victim.
	victim := &c.sets[set][0]
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.state == Invalid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	if victim.state != Invalid {
		ev = Eviction{Addr: c.rebuild(set, victim.tag), Dirty: victim.state == Modified}
		evicted = true
	}
	victim.tag = tag
	victim.state = s
	c.clock++
	victim.lru = c.clock
	return ev, evicted
}

func (c *Cache) rebuild(set int, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros(uint(c.numSets)))
	return (tag<<setBits | uint64(set)) << c.blockBits
}
