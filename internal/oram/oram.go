// Package oram implements the Path ORAM baseline (Stefanov et al., CCS'13)
// that the paper compares against, plus the paper's optimistic fixed-latency
// performance model (Section 4).
//
// The functional implementation maintains the Path ORAM invariant — a block
// mapped to leaf l is always on the path from the root to l, or in the
// stash — and exposes the quantities the paper's comparison depends on:
// per-access block reads/writes (bandwidth and write amplification), stash
// occupancy and overflow (the deadlock/failure risk of Section 2.3), the
// ≥100% storage overhead of dummy blocks, and the uniformly random leaf
// trace an observer sees.
package oram

import (
	"errors"
	"fmt"

	"obfusmem/internal/xrand"
)

// Op selects the access type. Path ORAM treats both identically on the
// bus — which is exactly its read/write indistinguishability property.
type Op int

// Operations.
const (
	OpRead Op = iota
	OpWrite
)

// Config shapes the tree.
type Config struct {
	// Levels is L: the tree has L+1 levels of buckets and 2^L leaves.
	// The paper's base configuration uses L=24 (§4); tests use smaller.
	Levels int
	// Z is the bucket capacity in blocks (paper: 4).
	Z int
	// StashCapacity bounds the stash; exceeding it is a failure event
	// (in hardware: a stalled/deadlocked ORAM controller).
	StashCapacity int
	// BlockBytes is the payload size (64 in the paper).
	BlockBytes int
}

// DefaultConfig returns the paper's base parameters (Section 4): 25 levels
// of buckets (L=24), Z=4, and a generous stash.
func DefaultConfig() Config {
	return Config{Levels: 24, Z: 4, StashCapacity: 200, BlockBytes: 64}
}

type entry struct {
	id   int // block ID, -1 for dummy
	leaf int
	data []byte
}

// Stats captures the overhead quantities of Table 4 and Section 2.3.
type Stats struct {
	Accesses       uint64
	BlocksRead     uint64 // real+dummy blocks read from paths
	BlocksWritten  uint64 // blocks written back to paths
	RealRead       uint64
	StashMax       int
	StashSum       uint64 // for mean occupancy
	Failures       uint64 // stash overflow events
	DummiesWritten uint64
}

// ORAM is a functional Path ORAM.
type ORAM struct {
	cfg      Config
	leaves   int
	buckets  [][]entry // bucket index: level-order, node i children 2i+1, 2i+2
	posmap   []int     // block -> leaf
	stash    []entry
	rng      *xrand.Rand
	stats    Stats
	capacity int
	nBlocks  int
	// leafTrace records observed leaves for security analysis.
	leafTrace  []int
	traceLimit int
}

// ErrStashOverflow reports that an access could not complete within the
// stash bound — the failure mode that can deadlock a hardware ORAM.
var ErrStashOverflow = errors.New("oram: stash overflow")

// New builds an ORAM over nBlocks logical blocks. nBlocks may use at most
// half the tree capacity (the paper's 50% utilisation bound); exceeding it
// returns an error because the failure rate becomes unacceptable.
func New(cfg Config, nBlocks int, rng *xrand.Rand) (*ORAM, error) {
	if cfg.Levels < 1 || cfg.Levels > 30 {
		return nil, fmt.Errorf("oram: levels %d out of range", cfg.Levels)
	}
	if cfg.Z < 1 {
		return nil, fmt.Errorf("oram: Z must be positive")
	}
	if cfg.StashCapacity < 0 {
		return nil, fmt.Errorf("oram: stash capacity %d is negative", cfg.StashCapacity)
	}
	if nBlocks < 1 {
		return nil, fmt.Errorf("oram: %d blocks; need at least 1", nBlocks)
	}
	nodes := (1 << (cfg.Levels + 1)) - 1
	capacity := nodes * cfg.Z
	if nBlocks > capacity/2 {
		return nil, fmt.Errorf("oram: %d blocks exceed 50%% of capacity %d", nBlocks, capacity)
	}
	o := &ORAM{
		cfg:        cfg,
		leaves:     1 << cfg.Levels,
		buckets:    make([][]entry, nodes),
		posmap:     make([]int, nBlocks),
		rng:        rng,
		capacity:   capacity,
		nBlocks:    nBlocks,
		traceLimit: 1 << 20,
	}
	for i := range o.posmap {
		o.posmap[i] = rng.Intn(o.leaves)
	}
	return o, nil
}

// StorageOverhead returns (capacity - nBlocks) / nBlocks: the fraction of
// extra physical storage relative to useful data (≥ 1.0, i.e. ≥ 100%).
func (o *ORAM) StorageOverhead() float64 {
	return float64(o.capacity-o.nBlocks) / float64(o.nBlocks)
}

// PathLength returns blocks per path: Z × (L+1) — the per-access bandwidth
// multiplier (~100 for the paper's 8 GB configuration).
func (o *ORAM) PathLength() int { return o.cfg.Z * (o.cfg.Levels + 1) }

// Stats returns a copy of the counters.
func (o *ORAM) Stats() Stats { return o.stats }

// LeafTrace returns the recorded sequence of accessed leaves (what a bus
// observer of an ORAM system learns).
func (o *ORAM) LeafTrace() []int { return o.leafTrace }

// pathNodes returns bucket indices from root to the given leaf.
func (o *ORAM) pathNodes(leaf int) []int {
	nodes := make([]int, o.cfg.Levels+1)
	// Leaf nodes occupy indices [2^L - 1, 2^(L+1) - 1).
	idx := (1 << o.cfg.Levels) - 1 + leaf
	for lvl := o.cfg.Levels; lvl >= 0; lvl-- {
		nodes[lvl] = idx
		idx = (idx - 1) / 2
	}
	return nodes
}

// onPath reports whether the bucket at the given level of leaf a's path is
// also on leaf b's path (i.e. the leaves share the ancestor at that level).
func (o *ORAM) onPath(leafA, leafB, level int) bool {
	return leafA>>(o.cfg.Levels-level) == leafB>>(o.cfg.Levels-level)
}

// Access performs one ORAM operation. For OpWrite, data is stored (copied);
// for OpRead, the current value is returned (nil if never written).
func (o *ORAM) Access(op Op, block int, data []byte) ([]byte, error) {
	if block < 0 || block >= o.nBlocks {
		return nil, fmt.Errorf("oram: block %d out of range", block)
	}
	o.stats.Accesses++

	leaf := o.posmap[block]
	if len(o.leafTrace) < o.traceLimit {
		o.leafTrace = append(o.leafTrace, leaf)
	}
	// Remap immediately (Path ORAM step 2).
	o.posmap[block] = o.rng.Intn(o.leaves)

	// Read the whole path into the stash.
	path := o.pathNodes(leaf)
	for _, n := range path {
		for _, e := range o.buckets[n] {
			o.stats.BlocksRead++ // real blocks
			o.stash = append(o.stash, e)
		}
		// Dummies padding the bucket to Z are also read and discarded.
		o.stats.BlocksRead += uint64(o.cfg.Z - len(o.buckets[n]))
		o.buckets[n] = o.buckets[n][:0]
	}

	// Find / insert the block in the stash.
	var result []byte
	found := false
	for i := range o.stash {
		if o.stash[i].id == block {
			found = true
			o.stats.RealRead++
			if op == OpWrite {
				o.stash[i].data = append([]byte(nil), data...)
			}
			result = o.stash[i].data
			o.stash[i].leaf = o.posmap[block]
			break
		}
	}
	if !found {
		e := entry{id: block, leaf: o.posmap[block]}
		if op == OpWrite {
			e.data = append([]byte(nil), data...)
		}
		o.stash = append(o.stash, e)
		result = e.data
	}

	// Evict: walk the path from leaf to root, greedily placing stash
	// blocks whose assigned path passes through each bucket.
	for lvl := o.cfg.Levels; lvl >= 0; lvl-- {
		n := path[lvl]
		kept := o.stash[:0]
		for _, e := range o.stash {
			if len(o.buckets[n]) < o.cfg.Z && o.onPath(leaf, e.leaf, lvl) {
				o.buckets[n] = append(o.buckets[n], e)
				o.stats.BlocksWritten++
			} else {
				kept = append(kept, e)
			}
		}
		o.stash = kept
		// Dummy blocks written to pad the bucket.
		pad := o.cfg.Z - len(o.buckets[n])
		o.stats.BlocksWritten += uint64(pad)
		o.stats.DummiesWritten += uint64(pad)
	}

	if len(o.stash) > o.stats.StashMax {
		o.stats.StashMax = len(o.stash)
	}
	o.stats.StashSum += uint64(len(o.stash))
	if len(o.stash) > o.cfg.StashCapacity {
		o.stats.Failures++
		return result, ErrStashOverflow
	}
	return result, nil
}

// CheckInvariant verifies the Path ORAM invariant for every block: each
// block is either in the stash or in a bucket on its assigned path. It also
// checks no block appears twice. Used by property tests.
func (o *ORAM) CheckInvariant() error {
	seen := make(map[int]int)
	for _, e := range o.stash {
		seen[e.id]++
	}
	for n, b := range o.buckets {
		for _, e := range b {
			seen[e.id]++
			// The bucket must be on the path to e.leaf.
			lvl := levelOf(n)
			leafNode := (1 << o.cfg.Levels) - 1 + e.leaf
			anc := leafNode
			for l := o.cfg.Levels; l > lvl; l-- {
				anc = (anc - 1) / 2
			}
			if anc != n {
				return fmt.Errorf("oram: block %d in bucket %d not on path to leaf %d", e.id, n, e.leaf)
			}
			if e.leaf != o.posmap[e.id] {
				return fmt.Errorf("oram: block %d carries stale leaf %d (posmap %d)", e.id, e.leaf, o.posmap[e.id])
			}
		}
	}
	for id, n := range seen {
		if n > 1 {
			return fmt.Errorf("oram: block %d appears %d times", id, n)
		}
	}
	return nil
}

func levelOf(node int) int {
	lvl := 0
	for node > 0 {
		node = (node - 1) / 2
		lvl++
	}
	return lvl
}

// WriteAmplification returns blocks written per access.
func (o *ORAM) WriteAmplification() float64 {
	if o.stats.Accesses == 0 {
		return 0
	}
	return float64(o.stats.BlocksWritten) / float64(o.stats.Accesses)
}

// MeanStash returns the average stash occupancy after accesses.
func (o *ORAM) MeanStash() float64 {
	if o.stats.Accesses == 0 {
		return 0
	}
	return float64(o.stats.StashSum) / float64(o.stats.Accesses)
}
