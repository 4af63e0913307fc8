package obfus

import (
	"testing"

	"obfusmem/internal/memctl"
	"obfusmem/internal/sim"
)

// TestReadWriteLegZeroAllocs is the PR 4 regression guard for the obfus
// datapath: with recovery enabled and zero faults, a steady-state
// read+write leg through the full pipeline (front end, pad pre-generation,
// MAC, packet assembly, bus transfer, memory-side decode, reply) must not
// allocate once the packet arena and write ring are warm. bench-smoke runs
// this in CI.
func TestReadWriteLegZeroAllocs(t *testing.T) {
	cfg := DefaultAuth()
	cfg.Recovery = true
	r := newRig(t, cfg, 2)
	at := sim.Time(0)
	// Warm-up: grow the packet arena, write ring, and resource state to
	// their steady-state footprint.
	for i := 0; i < 32; i++ {
		r.ctrl.Read(at, uint64(0x1000+64*i))
		r.ctrl.Write(at, uint64(0x9000+64*i), at)
		at += 200 * sim.Nanosecond
	}
	addr := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		if _, ok := r.ctrl.Read(at, 0x1000+addr); !ok {
			t.Fatal("read failed without an attacker")
		}
		r.ctrl.Write(at, 0x9000+addr, at)
		addr = (addr + 64) % 4096
		at += 200 * sim.Nanosecond
	})
	if allocs != 0 {
		t.Fatalf("steady-state read+write leg allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPooledDeterminismSameSeed drives the identical request sequence
// through two freshly built controllers (same seed, pooled packet arena
// and scratch buffers) and requires bit-identical completion times, stats,
// and value-carrying payload round trips. This is the unit-level half of
// the determinism-under-pooling contract; the suite-level half is
// TestQuickSuiteByteIdentical in internal/exp.
func TestPooledDeterminismSameSeed(t *testing.T) {
	type outcome struct {
		times [64]sim.Time
		oks   [64]bool
		data  [8]memctl.Block
		stats Stats
	}
	runOnce := func() outcome {
		cfg := DefaultAuth()
		cfg.Recovery = true
		cfg.Dummy = RandomAddress // exercises the controller RNG too
		r := newRig(t, cfg, 2)
		var o outcome
		at := sim.Time(0)
		for i := 0; i < 64; i++ {
			addr := uint64(0x4000 + 64*(i*7%32))
			if i%3 == 2 {
				o.times[i] = r.ctrl.Write(at, addr, at)
			} else {
				o.times[i], o.oks[i] = r.ctrl.Read(at, addr)
			}
			at += 150 * sim.Nanosecond
		}
		for i := 0; i < 8; i++ {
			var blk memctl.Block
			for j := range blk {
				blk[j] = byte(i*31 + j)
			}
			addr := uint64(0x8000 + 64*i)
			r.ctrl.WriteBlock(at, addr, at, &blk)
			at += 150 * sim.Nanosecond
			var got memctl.Block
			_, ok := r.ctrl.ReadBlock(at, addr, &got)
			if !ok {
				t.Fatal("value-carrying read failed")
			}
			if got != blk {
				t.Fatalf("payload corrupted through pooled datapath: got %x want %x", got[:8], blk[:8])
			}
			o.data[i] = got
			at += 150 * sim.Nanosecond
		}
		r.ctrl.Drain(at)
		o.stats = r.ctrl.Stats()
		return o
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("two identical seeded runs diverged:\nfirst:  %+v\nsecond: %+v", a.stats, b.stats)
	}
}

// BenchmarkReadWriteLeg measures one authenticated read+write pair through
// the full pipeline (the suite's inner loop).
func BenchmarkReadWriteLeg(b *testing.B) {
	cfg := DefaultAuth()
	cfg.Recovery = true
	r := newRig(b, cfg, 2)
	at := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ctrl.Read(at, uint64(0x1000+64*(i%64)))
		r.ctrl.Write(at, uint64(0x9000+64*(i%64)), at)
		at += 200 * sim.Nanosecond
	}
}
