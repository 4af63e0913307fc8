package stats

import (
	"math"
	"slices"
	"testing"

	"obfusmem/internal/xrand"
)

// entropyBitsMM is the Miller–Madow corrected entropy of h in bits.
func entropyBitsMM(h *Hist) float64 {
	return h.EntropyBits() + millerMadowBits(len(h.sortedCounts()), h.n)
}

// TestHistDenseBoundary adds symbols on both sides of the dense range's
// upper bound, each a different number of times, and requires N, the cells
// in key order and EntropyBits to equal, bit for bit, a reference counted
// in a map and summed in sorted key order.
func TestHistDenseBoundary(t *testing.T) {
	syms := []uint64{0, 1023, 1024, 1 << 40}
	h := NewHist()
	ref := map[uint64]int{}
	n := 0
	for i, sym := range syms {
		for rep := 0; rep <= 2*i+1; rep++ {
			h.Add(sym)
			ref[sym]++
			n++
		}
	}
	h.Add(1023)
	ref[1023]++
	n++
	keys := make([]uint64, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var cells []int
	var s float64
	for _, k := range keys {
		cells = append(cells, ref[k])
		s += float64(ref[k]) * math.Log2(float64(ref[k]))
	}
	want := math.Log2(float64(n)) - s/float64(n)
	if h.N() != n {
		t.Errorf("N = %d, want %d", h.N(), n)
	}
	if got := h.sortedCounts(); !slices.Equal(got, cells) {
		t.Errorf("cells %v, want %v in key order", got, cells)
	}
	if got := h.EntropyBits(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("EntropyBits = %v, reference %v", got, want)
	}
}

// TestEntropyAnalytic checks the plug-in estimator against closed-form
// values on exact empirical distributions.
func TestEntropyAnalytic(t *testing.T) {
	// Uniform over K symbols: H = log2 K.
	for _, k := range []int{2, 4, 16, 256} {
		h := NewHist()
		for s := 0; s < k; s++ {
			for c := 0; c < 5; c++ {
				h.Add(uint64(s))
			}
		}
		want := math.Log2(float64(k))
		if got := h.EntropyBits(); math.Abs(got-want) > 1e-12 {
			t.Errorf("uniform(%d): H = %v, want %v", k, got, want)
		}
	}

	// Point mass: H = 0.
	h := NewHist()
	for i := 0; i < 100; i++ {
		h.Add(7)
	}
	if got := h.EntropyBits(); got != 0 {
		t.Errorf("point mass: H = %v, want 0", got)
	}
	if got := entropyBitsMM(h); got != 0 {
		t.Errorf("point mass: H_MM = %v, want 0 (support 1 gets no correction)", got)
	}

	// Bernoulli(1/4): H = 2 - 3/4*log2(3).
	h = NewHist()
	for i := 0; i < 4; i++ {
		h.Add(uint64(i % 4 / 3)) // 3 zeros, 1 one
	}
	want := 2 - 0.75*math.Log2(3)
	if got := h.EntropyBits(); math.Abs(got-want) > 1e-12 {
		t.Errorf("bernoulli(1/4): H = %v, want %v", got, want)
	}

	// Empty and zero-count edge cases.
	if got := NewHist().EntropyBits(); got != 0 {
		t.Errorf("empty: H = %v, want 0", got)
	}
}

// TestMutualInformationAnalytic checks the joint estimator on pairs with
// known MI.
func TestMutualInformationAnalytic(t *testing.T) {
	// Independent pair with exact product counts: MI = 0.
	j := NewJoint()
	for x := 0; x < 4; x++ {
		for y := 0; y < 8; y++ {
			for c := 0; c < 3; c++ {
				j.Add(uint64(x), uint64(y))
			}
		}
	}
	if got := j.MutualInformationBits(); math.Abs(got) > 1e-12 {
		t.Errorf("independent pair: plug-in MI = %v, want 0", got)
	}
	// MM correction on the exact product table is negative (joint support =
	// product of marginals), pulling the estimate below zero — the clamp is
	// the caller's job.
	if got := j.MutualInformationBitsMM(); got > 1e-12 {
		t.Errorf("independent pair: MM MI = %v, want <= 0", got)
	}

	// Perfectly correlated pair: MI = H(X) = log2 K.
	j = NewJoint()
	const k = 16
	for x := 0; x < k; x++ {
		for c := 0; c < 2; c++ {
			j.Add(uint64(x), uint64(x))
		}
	}
	want := math.Log2(k)
	if got := j.MutualInformationBits(); math.Abs(got-want) > 1e-12 {
		t.Errorf("correlated pair: plug-in MI = %v, want %v", got, want)
	}
	// MM correction is tiny for matched supports (Kx = Ky = Kxy): the
	// corrected estimate stays within half a bit's worth of correction.
	if got := j.MutualInformationBitsMM(); math.Abs(got-want) > float64(k)/(2*float64(j.N())*math.Ln2) {
		t.Errorf("correlated pair: MM MI = %v strays from %v", got, want)
	}
}

// TestMillerMadowConvergence draws small samples from a uniform source and
// checks that (a) the plug-in estimate is biased low, (b) Miller–Madow is
// closer to the truth on average, and (c) both converge as n grows.
func TestMillerMadowConvergence(t *testing.T) {
	const k = 32
	truth := math.Log2(k)
	rng := xrand.New(1234)

	meanErr := func(n, trials int) (plugin, mm float64) {
		for tr := 0; tr < trials; tr++ {
			h := NewHist()
			for i := 0; i < n; i++ {
				h.Add(uint64(rng.Intn(k)))
			}
			plugin += truth - h.EntropyBits() // bias is positive (underestimate)
			mm += math.Abs(truth - entropyBitsMM(h))
		}
		return plugin / float64(trials), mm / float64(trials)
	}

	smallPlugin, smallMM := meanErr(64, 200)
	if smallPlugin <= 0 {
		t.Errorf("plug-in entropy not biased low on small samples: mean bias %v", smallPlugin)
	}
	if smallMM >= smallPlugin {
		t.Errorf("Miller–Madow |error| %v not better than plug-in bias %v at n=64", smallMM, smallPlugin)
	}

	largePlugin, largeMM := meanErr(4096, 50)
	if largePlugin >= smallPlugin {
		t.Errorf("plug-in bias did not shrink with n: %v at n=64 vs %v at n=4096", smallPlugin, largePlugin)
	}
	if largeMM > 0.02 {
		t.Errorf("Miller–Madow |error| %v at n=4096, want < 0.02 bits", largeMM)
	}
}

// TestJointSymbolFolding confirms symbols above 32 bits fold rather than
// collide with the packing of the other coordinate.
func TestJointSymbolFolding(t *testing.T) {
	j := NewJoint()
	j.Add(1<<40|5, 9) // folds to x=5
	j.Add(5, 9)
	if j.N() != 2 {
		t.Fatalf("N = %d", j.N())
	}
	if got := j.EntropyXBits(); got != 0 {
		t.Errorf("folded symbols should coincide: H(X) = %v, want 0", got)
	}
}
