package trace

import (
	"fmt"
	"strings"
	"testing"

	"obfusmem/internal/xrand"
)

// TestSymtabCacheMatchesMap checks that the cache in front of the intern
// map changes no sym: a name table and a string-value table return, lookup
// for lookup, the syms a plain map assigns in first-seen order. The
// lookups cover constants, equal strings at other addresses
// (strings.Clone, fmt.Sprint), empty strings (the zero one first, whose
// nil address an empty slot has too), prefixes of one string, which share
// its address, more of them than the cache has sets, and four times more
// distinct strings than the cache has slots, so that sets collide and
// slots are replaced, then looked up again.
func TestSymtabCacheMatchesMap(t *testing.T) {
	for _, pre := range [][]symEntry{presymEntries, nil} {
		tab := newSymtab(pre)
		want := make(map[string]sym)
		for i, e := range pre {
			want[e.s] = sym(i)
		}
		check := func(s string) {
			t.Helper()
			id, ok := want[s]
			if !ok {
				id = sym(len(want))
				want[s] = id
			}
			if got := tab.id(s); got != id {
				t.Fatalf("id(%q) = %d, want %d", s, got, id)
			}
			if got := tab.str(id); got != s {
				t.Fatalf("str(%d) = %q, want %q", id, got, s)
			}
		}
		consts := []string{"req", "requests", "req-link", "bank 3", "mac-request", "", "write", "ctl", "addr"}
		many := make([]string, 4*len(tab.cache)*len(tab.cache[0]))
		for i := range many {
			many[i] = fmt.Sprint("s", i)
		}
		var zero string // nil address and no bytes, as an empty slot holds
		check(zero)
		long := strings.Repeat("0123456789", 40)
		rng := xrand.New(3)
		for range 3 {
			for i := range len(long) {
				check(long[:i])
				check(long[:i/2])
			}
			for _, s := range consts {
				check(s)
				check(strings.Clone(s))
				check(fmt.Sprint(s))
				check(s)
			}
			for _, s := range many {
				check(s)
			}
			for range 20_000 {
				s := many[rng.Uint64n(uint64(len(many)))]
				if rng.Uint64n(3) == 0 {
					s = strings.Clone(s)
				}
				check(s)
				check(consts[rng.Uint64n(uint64(len(consts)))])
			}
		}
		if len(tab.entries) != len(want) || len(tab.ids) != len(want) {
			t.Errorf("table holds %d entries and %d ids, want %d distinct strings",
				len(tab.entries), len(tab.ids), len(want))
		}
	}
}
