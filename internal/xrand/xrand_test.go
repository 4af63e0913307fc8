package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/1000 times", same)
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(7)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams coincided %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(99)
	const n = 10
	const draws = 100000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		buckets[r.Uint64n(n)]++
	}
	want := draws / n
	for i, c := range buckets {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(100)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-100) > 2 {
		t.Errorf("Exp(100) mean = %v, want ~100", mean)
	}
	if r.Exp(0) != 0 || r.Exp(-1) != 0 {
		t.Error("Exp of non-positive mean should be 0")
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(17)
	p := NewPareto(1.2, 1, 1024)
	for i := 0; i < 10000; i++ {
		v := p.Draw(r)
		if v < 1 || v > 1024 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestProb(t *testing.T) {
	r := New(19)
	if r.Prob(0) || r.Prob(-1) {
		t.Error("Prob(<=0) must be false")
	}
	if !r.Prob(1) || !r.Prob(2) {
		t.Error("Prob(>=1) must be true")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Prob(0.3) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Prob(0.3) rate = %v", frac)
	}
}

func TestBytes(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 7, 8, 9, 16, 33} {
		p := make([]byte, n)
		r.Bytes(p)
		if n >= 8 {
			allZero := true
			for _, b := range p {
				if b != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Errorf("Bytes(%d) produced all zeros", n)
			}
		}
	}
}

func TestUint64nPowerOfTwoAndBias(t *testing.T) {
	r := New(29)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
	// Draws from a non-power-of-two range stay in range.
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(3); v >= 3 {
			t.Fatalf("Uint64n(3) = %d", v)
		}
	}
}

func TestMix64(t *testing.T) {
	if Mix64(0) == Mix64(1) {
		t.Error("Mix64 collision on adjacent inputs")
	}
	if Mix64(12345) != Mix64(12345) {
		t.Error("Mix64 not deterministic")
	}
}

// TestDrawsZeroAllocs is the zero-allocation contract of the draws the
// simulator makes per request (cover addresses, ORAM leaves, workload
// addresses). bench-smoke runs this in CI.
func TestDrawsZeroAllocs(t *testing.T) {
	r := New(7)
	pareto := NewPareto(1.1, 16, 1<<24)
	var sink uint64
	cases := []struct {
		name string
		op   func()
	}{
		{"Uint64", func() { sink += r.Uint64() }},
		{"Intn", func() { sink += uint64(r.Intn(1000)) }},
		{"Uint64n", func() { sink += r.Uint64n(1<<40 + 3) }},
		{"Uint64n/pow2", func() { sink += r.Uint64n(1 << 20) }},
		{"Pareto.Draw", func() { sink += uint64(pareto.Draw(r)) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
	_ = sink
}
