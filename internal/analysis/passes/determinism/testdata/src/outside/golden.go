// Golden sources proving the scope filter: an unscoped package may collect
// map keys in iteration order.
package outside

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
