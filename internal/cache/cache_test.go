package cache

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"obfusmem/internal/xrand"
)

// small is 8 sets of 2 ways: the same set recurs every 512 bytes.
func small() *Cache { return New(1024, 2, 64) }

func TestLookupInsert(t *testing.T) {
	c := small()
	if c.Lookup(0x100) {
		t.Fatal("cold lookup hit")
	}
	if ev, ok := c.Insert(0x100); ok {
		t.Fatalf("insert into empty set evicted %#x", ev)
	}
	if !c.Lookup(0x100) {
		t.Fatal("lookup after insert missed")
	}
	// Same block, different byte offset.
	if !c.Lookup(0x13f) {
		t.Fatal("same-block lookup missed")
	}
	if _, ok := c.Insert(0x100); ok {
		t.Fatal("re-insert evicted")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	a, b, d := uint64(0x000), uint64(0x200), uint64(0x400)
	c.Insert(a)
	c.Insert(b)
	c.Lookup(a) // make b the LRU
	ev, ok := c.Insert(d)
	if !ok || ev != b {
		t.Fatalf("evicted %#x (ok %v), want %#x", ev, ok, b)
	}
	if !c.Lookup(a) || !c.Lookup(d) || c.Lookup(b) {
		t.Error("LRU state wrong after eviction")
	}
}

func TestRebuildAddress(t *testing.T) {
	// The evicted address must be the one inserted.
	for _, blk := range []uint64{0x7fc0, 0x12340, 0xabcc0} {
		c := small()
		c.Insert(blk)
		// Fill the set (stride 512B maps to the same set) to force
		// eviction of blk.
		c.Insert(blk + 512)
		ev, ok := c.Insert(blk + 1024)
		if !ok || ev != blk {
			t.Fatalf("evicted %#x (ok %v), want %#x", ev, ok, blk)
		}
		if c.Lookup(blk) {
			t.Fatalf("line %#x not evicted", blk)
		}
	}
}

// Property: cache never holds more valid lines than its capacity and the
// same block never occupies two ways.
func TestCapacityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		c := small()
		live := map[uint64]bool{}
		for i := 0; i < 300; i++ {
			addr := uint64(r.Intn(64)) * 64
			if ev, ok := c.Insert(addr); ok {
				delete(live, ev)
			}
			live[addr] = true
			if len(live) > 16 { // 1024/64 lines
				return false
			}
		}
		// every tracked line must still probe valid
		for a := range live {
			if !c.Lookup(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	bad := [][3]int{
		{0, 2, 64},
		{1000, 2, 64},
		{1024, 2, 60},
	}
	for _, g := range bad {
		func() {
			defer func() { _ = recover() }()
			New(g[0], g[1], g[2])
			t.Errorf("New(%v) did not panic", g)
		}()
	}
}

func TestTagWiderThan32BitsPanics(t *testing.T) {
	c := small() // 64 B blocks, 8 sets: the tag is addr >> 9
	const top = uint64(1<<32-2) << 9
	c.Insert(top) // the widest tag that fits
	if !c.Lookup(top) {
		t.Fatalf("line %#x not held", top)
	}
	for _, addr := range []uint64{top + 512, 1 << 41, 1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%#x) did not panic", addr)
				}
			}()
			c.Insert(addr)
		}()
	}
}

// refCache is the stamp-LRU tag store the flat recency-ordered one
// replaced: per-way tag, valid bit and last-use stamp, the victim being the
// first invalid way or else the way with the oldest stamp.
type refCache struct {
	sets      [][]refLine
	blockBits uint
	setBits   uint
	setMask   uint64
	clock     uint64
}

type refLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newRef(sizeBytes, assoc, blockBytes int) *refCache {
	numSets := sizeBytes / blockBytes / assoc
	c := &refCache{
		blockBits: uint(bits.TrailingZeros(uint(blockBytes))),
		setBits:   uint(bits.TrailingZeros(uint(numSets))),
		setMask:   uint64(numSets - 1),
		sets:      make([][]refLine, numSets),
	}
	for i := range c.sets {
		c.sets[i] = make([]refLine, assoc)
	}
	return c
}

func (c *refCache) index(addr uint64) (int, uint64) {
	blk := addr >> c.blockBits
	return int(blk & c.setMask), blk >> c.setBits
}

func (c *refCache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if l := &c.sets[set][i]; l.valid && l.tag == tag {
			c.clock++
			l.lru = c.clock
			return true
		}
	}
	return false
}

func (c *refCache) Insert(addr uint64) (evicted uint64, ok bool) {
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if l := &ways[i]; l.valid && l.tag == tag {
			c.clock++
			l.lru = c.clock
			return 0, false
		}
	}
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
	victim.tag, victim.valid = tag, true
	c.clock++
	victim.lru = c.clock
	return evicted, ok
}

// TestMatchesStampLRU drives the tag store and refCache with the same
// random Lookup/Insert sequences on direct-mapped, 2-way, 8-way and fully
// associative geometries: every hit, victim address and ok must agree.
func TestMatchesStampLRU(t *testing.T) {
	const size, block = 4096, 64 // 64 lines
	for _, assoc := range []int{1, 2, 8, size / block} {
		t.Run(fmt.Sprintf("%d-way", assoc), func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				r := xrand.New(seed)
				c, ref := New(size, assoc, block), newRef(size, assoc, block)
				for i := 0; i < 5000; i++ {
					// Four times the capacity in blocks, with random
					// offsets inside the block and a high tag bit now
					// and then.
					addr := uint64(r.Intn(4*size/block))*block + uint64(r.Intn(block))
					if r.Intn(8) == 0 {
						addr |= 1 << 36
					}
					if r.Intn(2) == 0 {
						if got, want := c.Lookup(addr), ref.Lookup(addr); got != want {
							t.Fatalf("seed %d op %d: Lookup(%#x) = %v, reference %v", seed, i, addr, got, want)
						}
						continue
					}
					ev, ok := c.Insert(addr)
					rev, rok := ref.Insert(addr)
					if ev != rev || ok != rok {
						t.Fatalf("seed %d op %d: Insert(%#x) = %#x %v, reference %#x %v", seed, i, addr, ev, ok, rev, rok)
					}
				}
			}
		})
	}
}
