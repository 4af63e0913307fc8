// Golden sources for the determinism analyzer, loaded under the synthetic
// import path obfusmem/internal/sim so the scope filter applies.
package sim

import "sort"

func keysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "no total-order sort"
	}
	return keys
}

func keysPartialSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "no total-order sort"
	}
	// sort.Slice does not qualify: a partial comparator keeps map order
	// among ties.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func keysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func copyMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func loopLocal(m map[string]int) int {
	n := 0
	for _, v := range m {
		double := v * 2
		if double > 10 {
			n++
		}
	}
	return n
}

func lastWriter(m map[string]int) int {
	var last int
	for _, v := range m {
		last = v // want "order-dependent write"
	}
	return last
}

func floatSum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v // want "order-dependent write"
	}
	return s
}

func emit(m map[string]int, f func(int)) {
	for _, v := range m {
		f(v) // want "call with side effects inside map-range"
	}
}

func prune(m map[string]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}
