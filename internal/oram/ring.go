package oram

import (
	"errors"
	"fmt"

	"obfusmem/internal/xrand"
)

// RingConfig shapes a Ring ORAM (Ren et al., USENIX Security 2015), the
// bandwidth-optimised Path ORAM variant the paper cites as the best
// hardware ORAM baseline (24x bandwidth overhead vs Path ORAM's 120x).
type RingConfig struct {
	// Levels is L: the tree has L+1 bucket levels.
	Levels int
	// Z is the number of real slots per bucket.
	Z int
	// S is the number of reserved dummy slots per bucket; a bucket can
	// serve S reads between reshuffles.
	S int
	// A is the eviction rate: one EvictPath per A accesses.
	A int
	// StashCapacity bounds the stash.
	StashCapacity int
	BlockBytes    int
}

// DefaultRingConfig returns the Z=4, S=6, A=3 configuration of the Ring
// ORAM paper, scaled to the same tree height as our Path ORAM default.
func DefaultRingConfig() RingConfig {
	return RingConfig{Levels: 24, Z: 4, S: 6, A: 3, StashCapacity: 500, BlockBytes: 64}
}

// ringSlot is one physical slot in a bucket.
type ringSlot struct {
	id    int // block ID, -1 for dummy
	leaf  int
	data  []byte
	valid bool // not yet consumed by a read
}

// ringBucket holds Z+S slots plus the per-bucket access count.
type ringBucket struct {
	slots   []ringSlot
	touched int // reads since last reshuffle
}

// RingORAM is a functional Ring ORAM.
type RingORAM struct {
	cfg     RingConfig
	leaves  int
	buckets []ringBucket
	posmap  []int
	stash   []entry
	rng     *xrand.Rand
	nBlocks int

	accessCount int
	evictGen    uint64 // reverse-lexicographic eviction pointer

	stats RingStats
}

// RingStats captures the bandwidth quantities that distinguish Ring from
// Path ORAM. BlocksRead/BlocksWritten count *bus* transfers: the online
// phase moves a single XOR-combined block per access (the Ring ORAM "XOR
// technique" — the memory XORs the L+1 slot reads, of which all but one
// are dummies with known contents), and evictions/reshuffles read only the
// real blocks identified by bucket metadata while rewriting full buckets.
type RingStats struct {
	Accesses      uint64
	SlotReads     uint64 // physical slot touches inside the memory
	BlocksRead    uint64 // blocks crossing the bus toward the processor
	BlocksWritten uint64 // blocks crossing the bus toward the memory
	EvictPaths    uint64
	Reshuffles    uint64 // early reshuffles of exhausted buckets
	StashMax      int
	Failures      uint64
}

// NewRing builds a Ring ORAM over nBlocks logical blocks (at most 50% of
// real-slot capacity, as for Path ORAM).
func NewRing(cfg RingConfig, nBlocks int, rng *xrand.Rand) (*RingORAM, error) {
	if cfg.Levels < 1 || cfg.Levels > 30 {
		return nil, fmt.Errorf("oram: ring levels %d out of range", cfg.Levels)
	}
	if cfg.Z < 1 || cfg.S < 1 || cfg.A < 1 {
		return nil, fmt.Errorf("oram: invalid ring parameters Z=%d S=%d A=%d", cfg.Z, cfg.S, cfg.A)
	}
	nodes := (1 << (cfg.Levels + 1)) - 1
	capacity := nodes * cfg.Z
	if nBlocks > capacity/2 {
		return nil, fmt.Errorf("oram: %d blocks exceed 50%% of ring capacity %d", nBlocks, capacity)
	}
	r := &RingORAM{
		cfg:     cfg,
		leaves:  1 << cfg.Levels,
		buckets: make([]ringBucket, nodes),
		posmap:  make([]int, nBlocks),
		rng:     rng,
		nBlocks: nBlocks,
	}
	for i := range r.buckets {
		r.buckets[i].slots = make([]ringSlot, cfg.Z+cfg.S)
		for j := range r.buckets[i].slots {
			r.buckets[i].slots[j] = ringSlot{id: -1, valid: true}
		}
	}
	for i := range r.posmap {
		r.posmap[i] = rng.Intn(r.leaves)
	}
	return r, nil
}

// Stats returns a copy of the counters.
func (r *RingORAM) Stats() RingStats { return r.stats }

// StashSize returns current stash occupancy.
func (r *RingORAM) StashSize() int { return len(r.stash) }

// pathNodes returns bucket indices root..leaf.
func (r *RingORAM) pathNodes(leaf int) []int {
	nodes := make([]int, r.cfg.Levels+1)
	idx := (1 << r.cfg.Levels) - 1 + leaf
	for lvl := r.cfg.Levels; lvl >= 0; lvl-- {
		nodes[lvl] = idx
		idx = (idx - 1) / 2
	}
	return nodes
}

func (r *RingORAM) onPath(leafA, leafB, level int) bool {
	return leafA>>(r.cfg.Levels-level) == leafB>>(r.cfg.Levels-level)
}

// readBucketSlot performs the Ring ORAM online read of one bucket: the real
// slot holding block id if present (consuming it), else a random valid
// dummy slot. Exactly one block transfers either way.
func (r *RingORAM) readBucketSlot(n int, id int) (found bool, e entry) {
	b := &r.buckets[n]
	r.stats.SlotReads++
	b.touched++
	for i := range b.slots {
		s := &b.slots[i]
		if s.valid && s.id == id {
			s.valid = false
			found = true
			e = entry{id: s.id, leaf: s.leaf, data: s.data}
			s.id = -1
			s.data = nil
			return found, e
		}
	}
	// Dummy read: consume one valid dummy slot (there is always one until
	// the bucket is reshuffled; early reshuffle keeps the invariant).
	for i := range b.slots {
		s := &b.slots[i]
		if s.valid && s.id == -1 {
			s.valid = false
			return false, entry{}
		}
	}
	return false, entry{}
}

// reshuffle rewrites a bucket in place: surviving real blocks stay, all
// slots become valid again. Costs a full bucket read+write.
func (r *RingORAM) reshuffle(n int) {
	b := &r.buckets[n]
	r.stats.Reshuffles++
	real := b.slots[:0]
	var kept []ringSlot
	for _, s := range b.slots {
		if s.id >= 0 {
			kept = append(kept, ringSlot{id: s.id, leaf: s.leaf, data: s.data, valid: true})
		}
	}
	_ = real
	r.stats.SlotReads += uint64(len(kept))
	r.stats.BlocksRead += uint64(len(kept)) // real blocks cross the bus for re-encryption
	slots := make([]ringSlot, r.cfg.Z+r.cfg.S)
	for i := range slots {
		slots[i] = ringSlot{id: -1, valid: true}
	}
	perm := r.rng.Perm(len(slots))
	for i, s := range kept {
		slots[perm[i]] = s
	}
	b.slots = slots
	b.touched = 0
	r.stats.BlocksWritten += uint64(len(slots))
}

// ErrRingStashOverflow mirrors ErrStashOverflow for the Ring variant.
var ErrRingStashOverflow = errors.New("oram: ring stash overflow")

// Access performs one Ring ORAM operation.
func (r *RingORAM) Access(op Op, block int, data []byte) ([]byte, error) {
	if block < 0 || block >= r.nBlocks {
		return nil, fmt.Errorf("oram: ring block %d out of range", block)
	}
	r.stats.Accesses++
	leaf := r.posmap[block]
	r.posmap[block] = r.rng.Intn(r.leaves)

	// Online phase: one slot per bucket along the path; the XOR technique
	// combines them into a single block on the bus.
	path := r.pathNodes(leaf)
	var got entry
	found := false
	for _, n := range path {
		f, e := r.readBucketSlot(n, block)
		if f {
			found = true
			got = e
		}
	}
	r.stats.BlocksRead++ // the XOR-combined reply
	// Early reshuffle of exhausted buckets.
	for _, n := range path {
		if r.buckets[n].touched >= r.cfg.S {
			r.reshuffle(n)
		}
	}

	// Serve from the read block or the stash.
	var result []byte
	if found {
		got.leaf = r.posmap[block]
		if op == OpWrite {
			got.data = append([]byte(nil), data...)
		}
		result = got.data
		r.stash = append(r.stash, got)
	} else {
		served := false
		for i := range r.stash {
			if r.stash[i].id == block {
				served = true
				if op == OpWrite {
					r.stash[i].data = append([]byte(nil), data...)
				}
				result = r.stash[i].data
				r.stash[i].leaf = r.posmap[block]
				break
			}
		}
		if !served {
			e := entry{id: block, leaf: r.posmap[block]}
			if op == OpWrite {
				e.data = append([]byte(nil), data...)
			}
			r.stash = append(r.stash, e)
		}
	}

	// Amortised eviction: one EvictPath every A accesses, on the
	// reverse-lexicographic path order.
	r.accessCount++
	if r.accessCount%r.cfg.A == 0 {
		r.evictPath(int(reverseBits(r.evictGen, r.cfg.Levels)))
		r.evictGen = (r.evictGen + 1) % uint64(r.leaves)
	}

	if len(r.stash) > r.stats.StashMax {
		r.stats.StashMax = len(r.stash)
	}
	if len(r.stash) > r.cfg.StashCapacity {
		r.stats.Failures++
		return result, ErrRingStashOverflow
	}
	return result, nil
}

// evictPath reads every real block on the path into the stash and rewrites
// the path greedily (like Path ORAM's eviction, but amortised 1/A).
func (r *RingORAM) evictPath(leaf int) {
	r.stats.EvictPaths++
	path := r.pathNodes(leaf)
	for _, n := range path {
		b := &r.buckets[n]
		for i := range b.slots {
			s := &b.slots[i]
			if s.id >= 0 {
				r.stash = append(r.stash, entry{id: s.id, leaf: s.leaf, data: s.data})
				// Bucket metadata identifies real slots, so only those
				// cross the bus during eviction.
				r.stats.SlotReads++
				r.stats.BlocksRead++
			}
		}
	}
	for lvl := r.cfg.Levels; lvl >= 0; lvl-- {
		n := path[lvl]
		slots := make([]ringSlot, r.cfg.Z+r.cfg.S)
		for i := range slots {
			slots[i] = ringSlot{id: -1, valid: true}
		}
		placed := 0
		kept := r.stash[:0]
		for _, e := range r.stash {
			if placed < r.cfg.Z && r.onPath(leaf, e.leaf, lvl) {
				slots[placed] = ringSlot{id: e.id, leaf: e.leaf, data: e.data, valid: true}
				placed++
			} else {
				kept = append(kept, e)
			}
		}
		r.stash = kept
		perm := r.rng.Perm(len(slots))
		shuffled := make([]ringSlot, len(slots))
		for i, p := range perm {
			shuffled[p] = slots[i]
		}
		r.buckets[n] = ringBucket{slots: shuffled}
		r.stats.BlocksWritten += uint64(len(slots))
	}
}

// reverseBits reverses the low `bits` bits of v (the reverse-lexicographic
// eviction order of Ring ORAM).
func reverseBits(v uint64, bits int) uint64 {
	var out uint64
	for i := 0; i < bits; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}

// WriteAmplification returns blocks written per access.
func (r *RingORAM) WriteAmplification() float64 {
	if r.stats.Accesses == 0 {
		return 0
	}
	return float64(r.stats.BlocksWritten) / float64(r.stats.Accesses)
}

// CheckInvariant verifies that every block is in the stash or on its
// assigned path, exactly once.
func (r *RingORAM) CheckInvariant() error {
	seen := make(map[int]int)
	for _, e := range r.stash {
		seen[e.id]++
	}
	for n, b := range r.buckets {
		lvl := levelOf(n)
		for _, s := range b.slots {
			if s.id < 0 {
				continue
			}
			seen[s.id]++
			leafNode := (1 << r.cfg.Levels) - 1 + s.leaf
			anc := leafNode
			for l := r.cfg.Levels; l > lvl; l-- {
				anc = (anc - 1) / 2
			}
			if anc != n {
				return fmt.Errorf("oram: ring block %d in bucket %d off its path (leaf %d)", s.id, n, s.leaf)
			}
			if s.leaf != r.posmap[s.id] {
				return fmt.Errorf("oram: ring block %d carries stale leaf", s.id)
			}
		}
	}
	for id, n := range seen {
		if n > 1 {
			return fmt.Errorf("oram: ring block %d appears %d times", id, n)
		}
	}
	return nil
}
