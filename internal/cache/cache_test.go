package cache

import (
	"testing"
	"testing/quick"

	"obfusmem/internal/xrand"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 1024, Assoc: 2, BlockBytes: 64, HitLatency: cpuCycle})
}

func TestLookupInsert(t *testing.T) {
	c := small()
	if st := c.Lookup(0x100, true); st != Invalid {
		t.Fatalf("cold lookup = %v", st)
	}
	if ev, ok := c.Insert(0x100, Exclusive); ok {
		t.Fatalf("insert into empty set evicted %+v", ev)
	}
	if st := c.Lookup(0x100, true); st != Exclusive {
		t.Fatalf("lookup after insert = %v", st)
	}
	// Same block, different byte offset.
	if st := c.Lookup(0x13f, true); st != Exclusive {
		t.Fatalf("same-block lookup = %v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 8 sets, 2-way; same set every 8 blocks = 512 bytes
	a, b, d := uint64(0x000), uint64(0x200), uint64(0x400)
	c.Insert(a, Exclusive)
	c.Insert(b, Exclusive)
	c.Lookup(a, true) // make b the LRU
	ev, ok := c.Insert(d, Exclusive)
	if !ok || ev.Addr != b {
		t.Fatalf("evicted %+v, want addr %#x", ev, b)
	}
	if ev.Dirty {
		t.Error("clean line reported dirty")
	}
	if c.Lookup(a, false) == Invalid || c.Lookup(d, false) == Invalid || c.Lookup(b, false) != Invalid {
		t.Error("LRU state wrong after eviction")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := small()
	c.Insert(0x000, Modified)
	c.Insert(0x200, Exclusive)
	ev, ok := c.Insert(0x400, Exclusive)
	if !ok || !ev.Dirty || ev.Addr != 0x000 {
		t.Fatalf("ev = %+v, want dirty 0x0", ev)
	}
}

func TestRebuildAddress(t *testing.T) {
	// Evicted address must be the one inserted.
	for _, blk := range []uint64{0x7fc0, 0x12340, 0xabcc0} {
		c := small()
		c.Insert(blk, Modified)
		// Fill the set (stride 512B maps to the same set) to force
		// eviction of blk.
		c.Insert(blk+512, Exclusive)
		c.Insert(blk+1024, Exclusive)
		if c.Lookup(blk, false) != Invalid {
			t.Fatalf("line %#x not evicted", blk)
		}
	}
}

func TestInsertExistingTransitions(t *testing.T) {
	c := small()
	c.Insert(0x40, Shared)
	if _, ok := c.Insert(0x40, Modified); ok {
		t.Fatal("re-insert evicted")
	}
	if c.Lookup(0x40, false) != Modified {
		t.Fatal("re-insert did not transition state")
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
			st := State(1 + r.Intn(3))
			if ev, ok := c.Insert(addr, st); ok {
				delete(live, ev.Addr)
			}
			live[addr] = true
			if len(live) > 16 { // 1024/64 lines
				return false
			}
		}
		// every tracked line must still probe valid
		for a := range live {
			if c.Lookup(a, false) == Invalid {
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
	bad := []Config{
		{SizeBytes: 0, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 1000, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 60},
	}
	for _, cfg := range bad {
		func() {
			defer func() { _ = recover() }()
			New(cfg)
			t.Errorf("New(%+v) did not panic", cfg)
		}()
	}
}
