package trace

import "unsafe"

// sym is a string's index in one of a recorder's intern tables.
type sym uint32

// The strings a recorder's name table starts with, in presyms order, so
// the request envelope and the export's "req" key need no lookup.
const (
	symReq sym = iota
	symRequests
	symAddr
	symQueueNS
	symBusNS
	symCryptoNS
	symPCMNS
	symOtherNS
)

var presyms = [...]string{"req", "requests", "addr", "queue_ns", "bus_ns", "crypto_ns", "pcm_ns", "other_ns"}

// symtab interns strings. Each entry keeps its JSON encoding, computed once
// when the string is first seen, for the export to copy.
//
// A small cache keyed by the string's address and length sits in front of
// the map. Components pass the same constants and track names span after
// span, so a lookup is mostly a hash of those two words and a compare of
// them; the map hashes a string's bytes only on a miss. A slot keeps its
// string alive, so while it is cached no other string can take its
// address, and strings are immutable: the same address and length are the
// same bytes. An equal string at another address takes a slot of its own,
// so the cache changes no sym. The cache is two-way set associative, since
// a run's few dozen hot strings collide too often in a direct-mapped one.
type symtab struct {
	ids     map[string]sym
	entries []symEntry
	cache   [1 << symCacheBits][2]symSlot // each set's most recent miss first
}

// symCacheBits sizes the cache: 128 sets of two slots hold a traced run's
// names, TIDs, keys and string values with few misses.
const symCacheBits = 7

// symSlot is one cache slot: a string and its sym plus one, 0 while the
// slot is empty.
type symSlot struct {
	s  string
	id sym
}

// holds reports whether the slot caches s itself: its address and length.
func (e *symSlot) holds(s string) bool {
	return e.id != 0 && len(e.s) == len(s) && unsafe.StringData(e.s) == unsafe.StringData(s)
}

type symEntry struct {
	s, json string
}

// presymEntries are presyms with their JSON encodings, shared by every
// name table.
var presymEntries = func() []symEntry {
	e := make([]symEntry, len(presyms))
	for i, s := range presyms {
		e[i] = symEntry{s: s, json: string(appendString(nil, s))}
	}
	return e
}()

// newSymtab returns a table holding pre, in order.
func newSymtab(pre []symEntry) *symtab {
	t := &symtab{ids: make(map[string]sym, 64), entries: append(make([]symEntry, 0, 64), pre...)}
	for i, e := range pre {
		t.ids[e.s] = sym(i)
	}
	return t
}

// id returns s's sym, interning it on first sight.
func (t *symtab) id(s string) sym {
	set := &t.cache[cacheSet(s)]
	if set[0].holds(s) {
		return set[0].id - 1
	}
	if set[1].holds(s) {
		return set[1].id - 1
	}
	id, ok := t.ids[s]
	if !ok {
		id = sym(len(t.entries))
		t.ids[s] = id
		t.entries = append(t.entries, symEntry{s: s, json: string(appendString(nil, s))})
	}
	set[1], set[0] = set[0], symSlot{s, id + 1}
	return id
}

// cacheSet hashes s's address and length to a cache set.
func cacheSet(s string) uint64 {
	x := uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))) ^ uint64(len(s))<<48
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x >> (64 - symCacheBits)
}

func (t *symtab) str(id sym) string { return t.entries[id].s }
