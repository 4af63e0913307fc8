// Package cache implements the tag store of the memory-encryption engine's
// counter cache (Table 2: 256 KB, 8-way, 64 B blocks). The processor's
// L1/L2/L3 hierarchy is not simulated: the workload profiles generate the
// post-LLC request stream directly, and Table 2's cache rows are
// configuration text.
//
// Lines have no clean/dirty state: the one owner, ctrmode, writes back
// every evicted block.
package cache

import (
	"fmt"
	"math/bits"
)

type line struct {
	tag   uint64
	valid bool
	lru   uint64
}

// Cache is one set-associative, write-allocate tag store with true LRU
// replacement.
type Cache struct {
	sets      [][]line
	blockBits uint
	setBits   uint
	setMask   uint64
	clock     uint64
}

// New builds a cache. Size, associativity, and block size must be powers of
// two and consistent.
func New(sizeBytes, assoc, blockBytes int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 || blockBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	numSets := sizeBytes / blockBytes / assoc
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	if blockBytes&(blockBytes-1) != 0 {
		panic("cache: block size not a power of two")
	}
	c := &Cache{
		blockBits: uint(bits.TrailingZeros(uint(blockBytes))),
		setBits:   uint(bits.TrailingZeros(uint(numSets))),
		setMask:   uint64(numSets - 1),
	}
	c.sets = make([][]line, numSets)
	backing := make([]line, numSets*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc]
	}
	return c
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blockBits
	return int(blk & c.setMask), blk >> c.setBits
}

// Lookup probes without allocating and reports a hit; a hit becomes the
// set's most recently used line.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			c.clock++
			l.lru = c.clock
			return true
		}
	}
	return false
}

// Insert allocates addr's line as most recently used. When a valid victim
// had to be displaced, ok is true and evicted is its block address.
func (c *Cache) Insert(addr uint64) (evicted uint64, ok bool) {
	set, tag := c.index(addr)
	ways := c.sets[set]
	// Already present: just touch.
	for i := range ways {
		if l := &ways[i]; l.valid && l.tag == tag {
			c.clock++
			l.lru = c.clock
			return 0, false
		}
	}
	// Find an invalid way or the LRU victim.
	victim := &ways[0]
	for i := range ways {
		l := &ways[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	if victim.valid {
		evicted, ok = (victim.tag<<c.setBits|uint64(set))<<c.blockBits, true
	}
	victim.tag = tag
	victim.valid = true
	c.clock++
	victim.lru = c.clock
	return evicted, ok
}
