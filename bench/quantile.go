package main

import "sort"

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them, which
// is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailPercentile is the highest of p90, p99 and p99.9 with at least ten of
// n samples beyond it, or 0 when n is too small even for p90.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
