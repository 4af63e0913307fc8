package memctl

import (
	"testing"
	"testing/quick"

	"obfusmem/internal/pcm"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

func TestMapperDecodeLayout(t *testing.T) {
	m := NewMapper(DefaultConfig(4))
	// Block 64B, 16 blocks/row, 4 channels, 8 banks, 2 ranks.
	// addr bits: [6 col:4][chan:2][bank:3][rank:1][row...]
	co := m.Decode(0)
	if co != (Coords{}) {
		t.Fatalf("Decode(0) = %+v", co)
	}
	// Column increments every 64 bytes.
	if got := m.Decode(64).Col; got != 1 {
		t.Fatalf("col of 64 = %d", got)
	}
	// Channel bit starts at 64*16 = 1KB.
	if got := m.Decode(1024).Channel; got != 1 {
		t.Fatalf("channel of 1KB = %d", got)
	}
	// Bank bit starts at 4KB.
	if got := m.Decode(4096).Bank; got != 1 {
		t.Fatalf("bank of 4KB = %d", got)
	}
	// Rank bit starts at 32KB.
	if got := m.Decode(32 << 10).Rank; got != 1 {
		t.Fatalf("rank of 32KB = %d", got)
	}
	// Row starts at 64KB.
	if got := m.Decode(64 << 10).Row; got != 1 {
		t.Fatalf("row of 64KB = %d", got)
	}
}

func TestMapperRoundTripUnique(t *testing.T) {
	// Distinct block addresses decode to distinct coordinates.
	f := func(a, b uint32) bool {
		m := NewMapper(DefaultConfig(2))
		aa := uint64(a) &^ 63
		bb := uint64(b) &^ 63
		ca, cb := m.Decode(aa), m.Decode(bb)
		if aa == bb {
			return ca == cb
		}
		return ca != cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChannelOfMatchesDecode(t *testing.T) {
	for _, ch := range []int{1, 2, 4, 8} {
		m := NewMapper(DefaultConfig(ch))
		r := xrand.New(uint64(ch))
		for i := 0; i < 1000; i++ {
			addr := r.Uint64() % Capacity
			if m.ChannelOf(addr) != m.Decode(addr).Channel {
				t.Fatalf("channels=%d addr=%#x: ChannelOf != Decode", ch, addr)
			}
			if c := m.ChannelOf(addr); c < 0 || c >= ch {
				t.Fatalf("channel %d out of range", c)
			}
		}
	}
}

func TestInterleavingIsBalanced(t *testing.T) {
	m := NewMapper(DefaultConfig(4))
	counts := make([]int, 4)
	// Sequential 1KB-granularity sweep must round-robin channels.
	for i := 0; i < 4096; i++ {
		counts[m.ChannelOf(uint64(i)*1024)]++
	}
	for ch, n := range counts {
		if n != 1024 {
			t.Fatalf("channel %d got %d accesses, want 1024", ch, n)
		}
	}
}

func TestNonPowerOfTwoChannelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("3 channels did not panic")
		}
	}()
	NewMapper(DefaultConfig(3))
}

func noAdaptive(ch int) Config {
	cfg := DefaultConfig(ch)
	cfg.PCM.AdaptiveIdleClose = 0
	return cfg
}

func TestControllerAccessTiming(t *testing.T) {
	c := New(noAdaptive(1))
	done := c.Access(0, 0, false)
	want := pcm.ArrayReadLatency + pcm.CASLatency + pcm.BurstTime
	if done != want {
		t.Fatalf("cold read done = %v, want %v", done, want)
	}
	// Same row (next block): row hit.
	done2 := c.Access(done, 64, false)
	if done2 != done+pcm.CASLatency+pcm.BurstTime {
		t.Fatalf("row hit done = %v", done2)
	}
}

func TestControllerRoutesChannels(t *testing.T) {
	c := New(noAdaptive(4))
	c.Access(0, 0, false)       // channel 0
	c.Access(0, 1024, true)     // channel 1
	c.Access(0, 2048, false)    // channel 2
	c.Access(0, 2048+64, false) // channel 2 again
	st := c.Stats()
	if st[0].Reads != 1 || st[1].Writes != 1 || st[2].Reads != 2 || st[3].Reads != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccessOnChannelValidates(t *testing.T) {
	c := New(noAdaptive(4))
	// addr 1024 is channel 1.
	c.AccessOnChannel(0, 1, 1024, false)
	defer func() {
		if recover() == nil {
			t.Error("mis-routed access did not panic")
		}
	}()
	c.AccessOnChannel(0, 0, 1024, false)
}

func TestDropDummy(t *testing.T) {
	c := New(noAdaptive(2))
	before := c.Device(0).Stats().Accesses
	c.DropDummy(0, 0)
	c.DropDummy(0, 0)
	if c.Stats()[0].DroppedDummies != 2 {
		t.Fatalf("DroppedDummies = %d", c.Stats()[0].DroppedDummies)
	}
	if c.Device(0).Stats().Accesses != before {
		t.Fatal("dropped dummy touched PCM")
	}
}

func TestTotalPCMStats(t *testing.T) {
	c := New(noAdaptive(2))
	c.Access(0, 0, false)
	c.Access(0, 1024, false)
	total := c.TotalPCMStats()
	if total.Accesses != 2 || total.ArrayReads != 2 {
		t.Fatalf("total = %+v", total)
	}
}

func TestFlush(t *testing.T) {
	c := New(noAdaptive(2))
	c.Access(0, 0, true)
	c.Flush()
	if c.TotalPCMStats().ArrayWrites != 1 {
		t.Fatal("Flush did not write back dirty row")
	}
}

func TestParallelBanksAcrossChannels(t *testing.T) {
	c := New(noAdaptive(2))
	d0 := c.Access(0, 0, false)
	d1 := c.Access(0, 1024, false)
	if d0 != d1 {
		t.Fatalf("accesses on different channels should complete together: %v %v", d0, d1)
	}
	// Bank conflict on one channel serializes.
	d2 := c.Access(0, 16*1024*4, false) // same channel 0, same bank, different row? verify below
	co := c.Mapper().Decode(16 * 1024 * 4)
	if co.Channel == 0 && co.Bank == 0 && co.Rank == 0 {
		if d2 <= d0 {
			t.Fatalf("bank-conflicting access should serialize: %v vs %v", d2, d0)
		}
	}
}

func TestMapperChannels(t *testing.T) {
	m := NewMapper(DefaultConfig(8))
	if m.Channels() != 8 {
		t.Fatalf("Channels = %d", m.Channels())
	}
}

var sinkTime sim.Time

func BenchmarkControllerAccess(b *testing.B) {
	c := New(noAdaptive(4))
	r := xrand.New(1)
	b.ReportAllocs()
	var at sim.Time
	for i := 0; i < b.N; i++ {
		addr := r.Uint64() % (1 << 30)
		at += 10 * sim.Nanosecond
		sinkTime = c.Access(at, addr, i%3 == 0)
	}
}
