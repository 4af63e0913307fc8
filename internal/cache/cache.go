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
	"math"
	"math/bits"
)

// Cache is one set-associative, write-allocate tag store with true LRU
// replacement. Each set is assoc consecutive entries of tags, kept most
// recently used first; an entry holds its line's tag plus one, and 0 marks
// an invalid way. Ways fill from the front and are never invalidated, so
// the invalid ways trail the valid ones and the last way is the LRU victim.
type Cache struct {
	tags      []uint32
	assoc     int
	blockBits uint
	setBits   uint
	setMask   uint64
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
	return &Cache{
		tags:      make([]uint32, numSets*assoc),
		assoc:     assoc,
		blockBits: uint(bits.TrailingZeros(uint(blockBytes))),
		setBits:   uint(bits.TrailingZeros(uint(numSets))),
		setMask:   uint64(numSets - 1),
	}
}

// index returns addr's set, its ways and the entry its line is stored as.
// It panics when the tag plus one does not fit in 32 bits.
func (c *Cache) index(addr uint64) (set uint64, ways []uint32, entry uint32) {
	blk := addr >> c.blockBits
	set = blk & c.setMask
	tag := blk >> c.setBits
	if tag >= math.MaxUint32 {
		panic(fmt.Sprintf("cache: address %#x has tag %#x, which does not fit in 32 bits", addr, tag))
	}
	i := int(set) * c.assoc
	return set, c.tags[i : i+c.assoc], uint32(tag) + 1
}

// toFront makes way i of a set its most recently used, shifting the more
// recent ways back by one.
func toFront(ways []uint32, i int) {
	e := ways[i]
	copy(ways[1:i+1], ways[:i])
	ways[0] = e
}

// Lookup probes without allocating and reports a hit; a hit becomes the
// set's most recently used line.
func (c *Cache) Lookup(addr uint64) bool {
	_, ways, entry := c.index(addr)
	for i, e := range ways {
		if e == entry {
			toFront(ways, i)
			return true
		}
		if e == 0 {
			break
		}
	}
	return false
}

// Insert allocates addr's line as most recently used. When a valid victim
// had to be displaced, ok is true and evicted is its block address.
func (c *Cache) Insert(addr uint64) (evicted uint64, ok bool) {
	set, ways, entry := c.index(addr)
	// Already present: just touch. Otherwise the first invalid way, or
	// the LRU way when the set is full, takes the line.
	victim := len(ways) - 1
	for i, e := range ways {
		if e == entry {
			toFront(ways, i)
			return 0, false
		}
		if e == 0 {
			victim = i
			break
		}
	}
	if e := ways[victim]; e != 0 {
		evicted, ok = (uint64(e-1)<<c.setBits|set)<<c.blockBits, true
	}
	ways[victim] = entry
	toFront(ways, victim)
	return evicted, ok
}
