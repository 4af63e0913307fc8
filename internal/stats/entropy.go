// Information-theoretic estimators for the leakage observatory: plug-in
// (maximum-likelihood) entropy and mutual information over discrete symbol
// streams, plus the Miller–Madow bias correction.
//
// The plug-in entropy of an empirical distribution underestimates the true
// entropy by roughly (K-1)/(2n ln 2) bits (K = support size, n = samples);
// for mutual information the bias goes the other way — MI is *over*estimated
// because the joint support is undersampled relative to the marginals, which
// is exactly the failure mode of naive wire-trace MI (every unique
// ciphertext looks informative). Miller–Madow corrects each entropy term by
// its first-order bias, so the corrected MI
//
//	I_MM = H_MM(X) + H_MM(Y) - H_MM(X,Y)
//	     = I_plugin + (Kx + Ky - Kxy - 1) / (2n ln 2)
//
// shrinks toward zero when the joint support is near the product of the
// marginals (independence) and is nearly unchanged when the joint support
// matches the marginals (determinism). Both estimators are exposed; reports
// quote the corrected one and carry the plug-in value for reference.
//
// Everything here iterates count tables in sorted key order so the floating
// point sums are bit-identical run to run (the determinism analyzer checks
// this package).
package stats

import (
	"math"
	"slices"
)

// Hist is a frequency table over discrete symbols. Symbols below
// denseSymbols count in an array, the rest in a map.
type Hist struct {
	dense  [denseSymbols]int
	sparse map[uint64]int
	n      int
}

// denseSymbols bounds the symbols Hist counts without hashing. The open
// loop's 16 ns gap buckets stay below it up to 16.4 us gaps, which covers
// every gap of obfsim -exp openloop -requests 8000.
const denseSymbols = 1024

// NewHist returns an empty frequency table.
func NewHist() *Hist { return &Hist{sparse: make(map[uint64]int)} }

// Add records one observation of the symbol.
func (h *Hist) Add(sym uint64) {
	if sym < denseSymbols {
		h.dense[sym]++
	} else {
		h.sparse[sym]++
	}
	h.n++
}

// N returns the number of observations.
func (h *Hist) N() int { return h.n }

// sortedCounts returns the nonzero cell counts in ascending key order, the
// deterministic iteration order for the float sums below: the dense cells,
// then the map's, whose keys are all larger.
func (h *Hist) sortedCounts() []int {
	var out []int
	for _, c := range h.dense {
		if c > 0 {
			out = append(out, c)
		}
	}
	return appendSortedCounts(out, h.sparse)
}

// entropyBits computes the plug-in entropy (bits) of a count vector with
// total n: log2(n) - (1/n) sum c*log2(c).
func entropyBits(counts []int, n int) float64 {
	if n <= 0 {
		return 0
	}
	var s float64
	for _, c := range counts {
		if c > 0 {
			s += float64(c) * math.Log2(float64(c))
		}
	}
	return math.Log2(float64(n)) - s/float64(n)
}

// millerMadowBits is the first-order bias correction (K-1)/(2n ln 2) in
// bits, added to a plug-in entropy.
func millerMadowBits(support, n int) float64 {
	if n <= 0 || support <= 1 {
		return 0
	}
	return float64(support-1) / (2 * float64(n) * math.Ln2)
}

// EntropyBits returns the plug-in entropy in bits.
func (h *Hist) EntropyBits() float64 { return entropyBits(h.sortedCounts(), h.n) }

// Joint accumulates paired observations (x, y) for mutual-information
// estimation. Symbols must fit in 32 bits (the pair packs into one map key);
// discretized wire-trace alphabets are far smaller.
type Joint struct {
	xy   map[uint64]int
	x, y map[uint64]int
	n    int
}

// NewJoint returns an empty joint frequency table.
func NewJoint() *Joint {
	return &Joint{xy: make(map[uint64]int), x: make(map[uint64]int), y: make(map[uint64]int)}
}

// Add records one paired observation. Symbols are folded to 32 bits.
func (j *Joint) Add(x, y uint64) {
	x &= 0xffffffff
	y &= 0xffffffff
	j.xy[x<<32|y]++
	j.x[x]++
	j.y[y]++
	j.n++
}

// N returns the number of paired observations.
func (j *Joint) N() int { return j.n }

// appendSortedCounts appends a count table's cells in ascending key order.
func appendSortedCounts(out []int, m map[uint64]int) []int {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out = slices.Grow(out, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// EntropyXBits returns the plug-in marginal entropy H(X) in bits.
func (j *Joint) EntropyXBits() float64 { return entropyBits(appendSortedCounts(nil, j.x), j.n) }

// EntropyYBits returns the plug-in marginal entropy H(Y) in bits.
func (j *Joint) EntropyYBits() float64 { return entropyBits(appendSortedCounts(nil, j.y), j.n) }

// MutualInformationBits returns the plug-in estimate of I(X;Y) in bits:
// H(X) + H(Y) - H(X,Y).
func (j *Joint) MutualInformationBits() float64 {
	return j.EntropyXBits() + j.EntropyYBits() - entropyBits(appendSortedCounts(nil, j.xy), j.n)
}

// MutualInformationBitsMM returns the Miller–Madow corrected estimate of
// I(X;Y) in bits: each of the three entropy terms gets its own first-order
// bias correction. The correction can push a small-sample estimate below
// zero; callers reporting a leakage score should clamp at zero (true MI is
// nonnegative).
func (j *Joint) MutualInformationBitsMM() float64 {
	return j.MutualInformationBits() +
		millerMadowBits(len(j.x), j.n) + millerMadowBits(len(j.y), j.n) - millerMadowBits(len(j.xy), j.n)
}
