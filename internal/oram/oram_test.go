package oram

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"obfusmem/internal/xrand"
)

func smallConfig() Config {
	return Config{Levels: 6, Z: 4, StashCapacity: 100, BlockBytes: 16}
}

func newSmall(t *testing.T, nBlocks int, seed uint64) *ORAM {
	t.Helper()
	o, err := New(smallConfig(), nBlocks, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestReadAfterWrite(t *testing.T) {
	o := newSmall(t, 100, 1)
	for i := 0; i < 100; i++ {
		data := []byte(fmt.Sprintf("block-%04d-data!", i))[:16]
		if _, err := o.Access(OpWrite, i, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		want := []byte(fmt.Sprintf("block-%04d-data!", i))[:16]
		got, err := o.Access(OpRead, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: got %q want %q", i, got, want)
		}
	}
}

func TestOverwrite(t *testing.T) {
	o := newSmall(t, 10, 2)
	o.Access(OpWrite, 3, []byte("first"))
	o.Access(OpWrite, 3, []byte("second"))
	got, _ := o.Access(OpRead, 3, nil)
	if string(got) != "second" {
		t.Fatalf("got %q", got)
	}
}

func TestUnwrittenBlockReadsNil(t *testing.T) {
	o := newSmall(t, 10, 3)
	got, err := o.Access(OpRead, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("unwritten block returned %q", got)
	}
}

func TestInvariantHolds(t *testing.T) {
	o := newSmall(t, 200, 4)
	r := xrand.New(99)
	for i := 0; i < 2000; i++ {
		blk := r.Intn(200)
		if r.Bool() {
			o.Access(OpWrite, blk, []byte("x"))
		} else {
			o.Access(OpRead, blk, nil)
		}
		if i%100 == 0 {
			if err := o.CheckInvariant(); err != nil {
				t.Fatalf("after %d accesses: %v", i, err)
			}
		}
	}
	if err := o.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPathLengthAndBandwidth(t *testing.T) {
	o := newSmall(t, 50, 5)
	if o.PathLength() != 4*7 {
		t.Fatalf("PathLength = %d, want 28", o.PathLength())
	}
	o.Access(OpRead, 0, nil)
	st := o.Stats()
	// Every access reads and writes exactly one full path.
	if st.BlocksRead != uint64(o.PathLength()) {
		t.Fatalf("BlocksRead = %d, want %d", st.BlocksRead, o.PathLength())
	}
	if st.BlocksWritten != uint64(o.PathLength()) {
		t.Fatalf("BlocksWritten = %d, want %d", st.BlocksWritten, o.PathLength())
	}
}

func TestWriteAmplification(t *testing.T) {
	o := newSmall(t, 100, 6)
	r := xrand.New(7)
	for i := 0; i < 500; i++ {
		o.Access(OpRead, r.Intn(100), nil)
	}
	wa := o.WriteAmplification()
	if wa != float64(o.PathLength()) {
		t.Fatalf("write amplification = %v, want %v", wa, float64(o.PathLength()))
	}
}

func TestStorageOverheadAtLeast100Percent(t *testing.T) {
	o := newSmall(t, 200, 8)
	if o.StorageOverhead() < 1.0 {
		t.Fatalf("storage overhead %v < 100%%", o.StorageOverhead())
	}
	// Exactly 50% utilisation is accepted and more fails: the tree has
	// 2^(L+1) - 1 buckets of Z slots.
	cfg := smallConfig()
	cap := (1<<(cfg.Levels+1) - 1) * cfg.Z
	if _, err := New(cfg, cap/2, xrand.New(1)); err != nil {
		t.Fatalf("50%% utilisation rejected: %v", err)
	}
	if _, err := New(cfg, cap/2+1, xrand.New(1)); err == nil {
		t.Fatal("over-utilised ORAM accepted")
	}
}

func TestLeafTraceUniform(t *testing.T) {
	// An observer's leaf trace should be indistinguishable from uniform
	// even for a maximally skewed program (hammering one block).
	o := newSmall(t, 10, 9)
	for i := 0; i < 12800; i++ {
		o.Access(OpRead, 0, nil)
	}
	trace := o.LeafTrace()
	if len(trace) != 12800 {
		t.Fatalf("trace length %d", len(trace))
	}
	counts := make([]int, 64) // 2^6 leaves
	for _, l := range trace[1:] {
		counts[l]++
	}
	// Chi-squared against uniform: expected 200 per leaf (12799/64).
	expected := float64(len(trace)-1) / 64
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 dof; 99.9th percentile ~ 103. Allow generous slack.
	if chi2 > 120 {
		t.Fatalf("leaf trace not uniform: chi2 = %v", chi2)
	}
	// And consecutive accesses to the same block use fresh leaves.
	repeats := 0
	for i := 1; i < len(trace); i++ {
		if trace[i] == trace[i-1] {
			repeats++
		}
	}
	if frac := float64(repeats) / float64(len(trace)); frac > 0.05 {
		t.Fatalf("leaf repeats fraction %v, want ~1/64", frac)
	}
}

func TestStashBounded(t *testing.T) {
	o := newSmall(t, 200, 10)
	r := xrand.New(11)
	for i := 0; i < 5000; i++ {
		_, err := o.Access(OpRead, r.Intn(200), nil)
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	st := o.Stats()
	if st.StashMax > 50 {
		t.Fatalf("stash peaked at %d, suspiciously high", st.StashMax)
	}
	if o.MeanStash() > float64(st.StashMax) {
		t.Fatal("mean stash exceeds max")
	}
}

func TestStashOverflowDetected(t *testing.T) {
	// A tiny, maximally-utilised tree with a zero-capacity stash must hit
	// the overflow path: any access that cannot fully evict is a failure.
	cfg := Config{Levels: 2, Z: 1, StashCapacity: 0, BlockBytes: 8}
	o, err := New(cfg, 3, xrand.New(12)) // capacity 7, 3 blocks < 50%
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(13)
	var sawOverflow bool
	for i := 0; i < 5000 && !sawOverflow; i++ {
		_, err := o.Access(OpRead, r.Intn(3), nil)
		if errors.Is(err, ErrStashOverflow) {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Fatal("zero-capacity stash never overflowed")
	}
	if o.Stats().Failures == 0 {
		t.Fatal("failure not counted")
	}
}

func TestBlockOutOfRange(t *testing.T) {
	o := newSmall(t, 10, 13)
	if _, err := o.Access(OpRead, 10, nil); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if _, err := o.Access(OpRead, -1, nil); err == nil {
		t.Fatal("negative block accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Levels: 0, Z: 4}, 1, xrand.New(1)); err == nil {
		t.Error("Levels 0 accepted")
	}
	if _, err := New(Config{Levels: 5, Z: 0}, 1, xrand.New(1)); err == nil {
		t.Error("Z 0 accepted")
	}
	for _, n := range []int{0, -3} {
		if _, err := New(Config{Levels: 5, Z: 4}, n, xrand.New(1)); err == nil {
			t.Errorf("%d blocks accepted", n)
		}
	}
	if _, err := New(Config{Levels: 5, Z: 4, StashCapacity: -1}, 1, xrand.New(1)); err == nil {
		t.Error("negative stash capacity accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Levels != 24 || cfg.Z != 4 {
		t.Fatalf("default config %+v, want L=24 Z=4", cfg)
	}
	// Paper: "about 100 cache blocks for 8GB memory for L=24 and Z=4".
	pathLen := cfg.Z * (cfg.Levels + 1)
	if pathLen != 100 {
		t.Fatalf("path length = %d, want 100", pathLen)
	}
}

func TestPerfModelSerializes(t *testing.T) {
	p := NewPerfModel()
	for i := 0; i < PaperConcurrency; i++ {
		if d := p.Access(0); d != PaperAccessLatency {
			t.Fatalf("access %d of the first window done at %v", i, d)
		}
	}
	for i := 0; i < PaperConcurrency; i++ {
		if d := p.Access(0); d != 2*PaperAccessLatency {
			t.Fatalf("access %d past the window done at %v, want serialized", i, d)
		}
	}
}

func TestReadsAndWritesIndistinguishableInTrace(t *testing.T) {
	// The blocks-read / blocks-written counters must be identical
	// regardless of the op mix: ORAM's type obfuscation.
	mk := func(seed uint64, writes bool) Stats {
		o := newSmall(t, 50, seed)
		r := xrand.New(seed + 100)
		for i := 0; i < 300; i++ {
			if writes {
				o.Access(OpWrite, r.Intn(50), []byte("y"))
			} else {
				o.Access(OpRead, r.Intn(50), nil)
			}
		}
		return o.Stats()
	}
	a := mk(42, false)
	b := mk(42, true)
	if a.BlocksRead != b.BlocksRead || a.BlocksWritten != b.BlocksWritten {
		t.Fatalf("op type changed trace volume: %+v vs %+v", a, b)
	}
}

func BenchmarkORAMAccess(b *testing.B) {
	o, err := New(Config{Levels: 12, Z: 4, StashCapacity: 500, BlockBytes: 64}, 8000, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Access(OpRead, r.Intn(8000), nil)
	}
}
