package cache

import (
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
