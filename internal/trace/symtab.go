package trace

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
type symtab struct {
	ids     map[string]sym
	entries []symEntry
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
	id, ok := t.ids[s]
	if !ok {
		id = sym(len(t.entries))
		t.ids[s] = id
		t.entries = append(t.entries, symEntry{s: s, json: string(appendString(nil, s))})
	}
	return id
}

func (t *symtab) str(id sym) string { return t.entries[id].s }
