package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"obfusmem/internal/sim"
)

// Chrome trace-event JSON export (the "JSON Array Format" object variant),
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing. Timestamps
// are emitted in microseconds (the format's unit) with sub-nanosecond
// precision preserved as fractions; displayTimeUnit asks viewers to render
// in nanoseconds. pid maps to a memory channel (pid 0 is the processor
// side) and tid to one engine, link, or bank within it.
//
// The exporter streams: it decodes the span log in place, front to back,
// keeping no per-span state, emits the spans in time order through a small
// heap of the few that log order has out of place (exportOrder), with no
// global sort, and appends each event straight into a buffered writer,
// copying the JSON encodings the intern tables hold for its strings and the
// event heads and pid/tid fragments it encodes once. Its
// output is byte for byte what encoding/json writes for the equivalent
// object (field order, omitempty, sorted args keys, HTML-safe strings, ES6
// number formatting); the reference encoding/json exporter in
// chrome_test.go and FuzzChromeExport hold it to that.

const psPerMicro = 1e6

// WriteChromeTrace exports the retained spans as Chrome trace-event JSON.
// The dropped-span count is embedded in otherData so truncation is never
// silent; callers should additionally surface it to the user.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	n := r.Len()
	var syms, strs []symEntry
	if n > 0 {
		syms, strs = r.syms.entries, r.strs.entries
	}

	// Intern (pid, tid) pairs to integer tracks in first-seen order so
	// Perfetto shows "channel 1 / req-link" style tracks, and each span's
	// (name, category, phase) to an event head. tracks[p][tid] is the
	// track of pids[p] and tid, and heads[headKey(s)] the head of s, each
	// 0 until seen.
	type trackKey struct {
		pid int32
		tid sym
	}
	var order []trackKey
	var pids []int32
	var tracks [][]int32
	heads := make([]int32, len(syms)*headsPerSym)
	headKeys := make([]int, 0, 16) // headKey of each head, in id order
	var s record                   // the span scanTracks and exportOrder decode
	if n > 0 {
		r.log.scanTracks(&s, func() {
			p := slices.Index(pids, s.pid)
			if p < 0 {
				p = len(pids)
				pids = append(pids, s.pid)
				tracks = append(tracks, make([]int32, len(syms)))
			}
			if t := &tracks[p][s.tid]; *t == 0 {
				order = append(order, trackKey{s.pid, s.tid})
				*t = int32(len(order))
			}
			if k := headKey(&s); heads[k] == 0 {
				headKeys = append(headKeys, k)
				heads[k] = int32(len(headKeys))
			}
		})
	}
	// process_name metadata goes out in ascending pid order, after the
	// thread_name metadata: pid discovery order depends on which component
	// traced first, the sorted order does not. The few pids are sorted in
	// place, with their track tables.
	for i := 1; i < len(pids); i++ {
		for j := i; j > 0 && pids[j] < pids[j-1]; j-- {
			pids[j], pids[j-1] = pids[j-1], pids[j]
			tracks[j], tracks[j-1] = tracks[j-1], tracks[j]
		}
	}

	// Encode each track's pid/tid fragment and each head once, into one
	// arena: a track takes at most 36 bytes, `,"pid":` and `,"tid":` with
	// an int32 each, and a head its name's JSON plus at most 38,
	// `{"name":`, `,"cat":"crypto` and `","ph":"X","ts":`.
	size := 36 * len(order)
	for _, k := range headKeys {
		size += len(syms[k/headsPerSym].json) + 38
	}
	arena := make([]byte, 0, size)
	frags := make([][]byte, len(order)+len(headKeys))
	for t, k := range order {
		lo := len(arena)
		arena = append(arena, `,"pid":`...)
		arena = strconv.AppendInt(arena, int64(k.pid), 10)
		arena = append(arena, `,"tid":`...)
		arena = strconv.AppendInt(arena, int64(t+1), 10)
		frags[t] = arena[lo:]
	}
	for h, k := range headKeys {
		lo := len(arena)
		name, cat, ph := k/headsPerSym, Category(k%headsPerSym/2), "X"
		if k%2 == 1 {
			ph = "i"
		}
		arena = append(arena, `{"name":`...)
		arena = append(arena, syms[name].json...)
		arena = append(arena, `,"cat":"`...)
		arena = append(arena, cat.String()...)
		arena = append(arena, `","ph":"`...)
		arena = append(arena, ph...)
		arena = append(arena, `","ts":`...)
		frags[len(order)+h] = arena[lo:]
	}
	trackFrags, headFrags := frags[:len(order)], frags[len(order):]

	e := chromeEncoder{w: bufio.NewWriterSize(w, 64<<10), syms: syms, strs: strs, rank: symRanks(syms)}
	b := e.next()
	b = append(b, `{"displayTimeUnit":"ns","otherData":{"droppedSpans":`...)
	b = strconv.AppendUint(b, r.Dropped(), 10)
	b = append(b, `,"retainedSpans":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"spanLimit":`...)
	b = strconv.AppendInt(b, int64(r.Limit()), 10)
	b = append(b, `},"traceEvents":`...)
	if n == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
	}
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	for i, k := range order {
		b := e.next()
		if i > 0 {
			b = append(b, ',')
		}
		if _, err := e.w.Write(appendMetadata(b, "thread_name", k.pid, i+1, syms[k.tid].json)); err != nil {
			return err
		}
	}
	for _, pid := range pids {
		name := `"cpu"`
		if pid > 0 {
			name = `"channel ` + strconv.Itoa(int(pid-1)) + `"`
		}
		if _, err := e.w.Write(appendMetadata(append(e.next(), ','), "process_name", pid, 0, name)); err != nil {
			return err
		}
	}
	b = e.next()
	if n > 0 {
		err := r.log.exportOrder(&s, func() error {
			trk := tracks[slices.Index(pids, s.pid)][s.tid]
			b, err := e.appendSpan(append(e.next(), ','), &s, headFrags[heads[headKey(&s)]-1], trackFrags[trk-1])
			if err != nil {
				return err
			}
			_, err = e.w.Write(b)
			return err
		})
		if err != nil {
			return err
		}
		b = append(e.next(), ']')
	}
	if _, err := e.w.Write(append(b, "}\n"...)); err != nil {
		return err
	}
	return e.w.Flush()
}

// headsPerSym is the number of event heads one name can take: a category
// and a phase.
const headsPerSym = 2 * int(numCategories)

// headKey indexes s's event head, its (name, category, phase), in a table
// of headsPerSym entries per name. A category out of range takes the
// head of CatOther, whose "other" it is exported as.
func headKey(s *record) int {
	c := s.cat
	if c < 0 || c >= numCategories {
		c = CatOther
	}
	k := int(s.name)*headsPerSym + 2*int(c)
	if s.phase == PhaseInstant {
		k++
	}
	return k
}

// scanTracks decodes the head, pid, tid and name of each retained span,
// oldest first, into s and calls visit.
func (l *spanLog) scanTracks(s *record, visit func()) {
	for k, c := range l.chunks {
		for off := l.start(k); off < len(c.b); {
			var b []byte
			b, off = span(c.b, off)
			s.decodeTrack(b)
			visit()
		}
	}
}

// exportOrder decodes the retained spans into s in stable time order, by
// emitted begin time, ties in log order, and calls emit after each. Viewers
// do not require the order, but it keeps the export deterministic and
// per-track monotonic.
//
// The log is nearly in time order already, so rather than sort it the pass
// holds back only the spans a later one may precede: once span i is held,
// every held span at or below floor(i+1), the least begin time of the
// spans after i, is emitted, least first. A later span then begins no
// earlier, and on a tie comes later in the log. The floors are kept for
// one chunk at a time, from a walk of the chunk's begin times and the
// least begin time of each later chunk, which the log keeps (exactly: only
// the head chunk, whose bound is never read here, has evicted spans). The
// pass costs O(n log w) for w held spans: a dozen on a traced run, n on a
// log recorded in reverse.
func (l *spanLog) exportOrder(s *record, emit func() error) error {
	// after[k] is the least sort key of the spans of chunks k.. (+Inf at
	// k = len(chunks)); most bounds the spans one chunk holds.
	after := make([]float64, len(l.chunks)+1)
	after[len(l.chunks)] = math.Inf(1)
	most := 0
	for k := len(l.chunks) - 1; k >= 0; k-- {
		after[k] = min(tsKey(l.chunks[k].least), after[k+1])
		most = max(most, l.chunks[k].n)
	}
	walk := make([]chunkSpan, most+1)
	held := make(spanHeap, 0, 64)
	for k, c := range l.chunks {
		m := 0
		for off := l.start(k); off < len(c.b); m++ {
			var b []byte
			walk[m].off = int32(off)
			b, off = span(c.b, off)
			walk[m].key = tsKey(beginOf(b))
		}
		walk[m].floor = after[k+1]
		for j := m - 1; j >= 0; j-- {
			walk[j].floor = min(walk[j].key, walk[j+1].floor)
		}
		for j := range m {
			held.push(heldSpan{walk[j].key, int32(k), walk[j].off})
			for len(held) > 0 && held[0].ts <= walk[j+1].floor {
				h := held.pop()
				b, _ := span(l.chunks[h.k].b, int(h.off))
				s.decode(b)
				if err := emit(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// chunkSpan is exportOrder's scratch for one span of the chunk it walks.
type chunkSpan struct {
	key   float64 // its sort key
	floor float64 // the least sort key of it and every later span
	off   int32   // its offset in the chunk
}

// tsKey is the export's sort key: the span's begin time as emitted.
func tsKey(t sim.Time) float64 { return float64(t) / psPerMicro }

// heldSpan is a span exportOrder holds back: its sort key and its chunk
// and offset in the log.
type heldSpan struct {
	ts     float64
	k, off int32
}

// before orders held spans by begin time, ties in log order.
func (a heldSpan) before(b heldSpan) bool {
	return a.ts < b.ts || a.ts == b.ts && (a.k < b.k || a.k == b.k && a.off < b.off)
}

// spanHeap is a binary min-heap of held spans.
type spanHeap []heldSpan

func (h *spanHeap) push(s heldSpan) {
	q := append(*h, s)
	for j := len(q) - 1; j > 0; {
		p := (j - 1) / 2
		if !q[j].before(q[p]) {
			break
		}
		q[j], q[p] = q[p], q[j]
		j = p
	}
	*h = q
}

func (h *spanHeap) pop() heldSpan {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q = q[:last]
	for j := 0; ; {
		c := 2*j + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(q[j]) {
			break
		}
		q[j], q[c] = q[c], q[j]
		j = c
	}
	*h = q
	return top
}

// symRanks returns each sym's position in the byte order of the interned
// strings, the order encoding/json sorts map keys in.
func symRanks(syms []symEntry) []int32 {
	bySym := make([]sym, len(syms))
	for i := range bySym {
		bySym[i] = sym(i)
	}
	slices.SortFunc(bySym, func(a, b sym) int { return strings.Compare(syms[a].s, syms[b].s) })
	rank := make([]int32, len(syms))
	for i, id := range bySym {
		rank[id] = int32(i)
	}
	return rank
}

// chromeEncoder appends each event into the free tail of its buffered
// writer, so a typical event is encoded in place with no copy.
type chromeEncoder struct {
	w    *bufio.Writer
	syms []symEntry // names, TIDs and arg keys
	strs []symEntry // string arg values
	rank []int32    // symRanks(syms)
	args []argRef   // scratch for one event's args, reused
}

// argRef names one args entry: the record's arg i, or the request tag
// when i < 0.
type argRef struct {
	rank int32 // the key's rank
	i    int
}

// next returns the writer's free buffer to append the next event to,
// flushing first when little room is left. A write error sticks in the
// writer and is returned by the following Write.
func (e *chromeEncoder) next() []byte {
	if e.w.Available() < 1024 {
		e.w.Flush()
	}
	return e.w.AvailableBuffer()
}

// appendMetadata appends one "M" event naming a thread or process; name is
// already JSON-encoded.
func appendMetadata(b []byte, kind string, pid int32, tid int, name string) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","ts":0,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = append(b, name...)
	return append(b, "}}"...)
}

// appendSpan appends one "X" or "i" event from its head, which runs up to
// the begin time, and its track's pid/tid fragment.
func (e *chromeEncoder) appendSpan(b []byte, s *record, head, track []byte) ([]byte, error) {
	b = append(b, head...)
	b = appendMicros(b, int64(s.begin))
	if s.phase != PhaseInstant {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, int64(s.end-s.begin))
	}
	b = append(b, track...)
	if s.phase == PhaseInstant {
		b = append(b, `,"s":"t"`...)
	}
	b, err := e.appendArgs(b, s)
	return append(b, '}'), err
}

// appendArgs writes the args object as encoding/json writes the export's
// map[string]any: keys sorted, "req" set first so a later arg with the
// same key replaces it, and the last of several equal keys winning.
func (e *chromeEncoder) appendArgs(b []byte, s *record) ([]byte, error) {
	if s.nargs == 0 && s.req == 0 {
		return b, nil
	}
	e.args = e.args[:0]
	if s.req != 0 {
		e.args = append(e.args, argRef{rank: e.rank[symReq], i: -1})
	}
	for i, k := range s.keys[:s.nargs] {
		e.args = append(e.args, argRef{rank: e.rank[k], i: i})
	}
	// Insertion sort: a handful of keys, stable, and allocation-free.
	for i := 1; i < len(e.args); i++ {
		for j := i; j > 0 && e.args[j].rank < e.args[j-1].rank; j-- {
			e.args[j], e.args[j-1] = e.args[j-1], e.args[j]
		}
	}
	b = append(b, `,"args":{`...)
	first := true
	for i, a := range e.args {
		if i+1 < len(e.args) && e.args[i+1].rank == a.rank {
			continue // a later duplicate wins
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		if a.i < 0 {
			b = append(b, `"req":`...)
			b = strconv.AppendUint(b, s.req, 10)
			continue
		}
		b = append(b, e.syms[s.keys[a.i]].json...)
		b = append(b, ':')
		var err error
		if b, err = e.appendValue(b, s, a.i); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendValue appends the record's arg i as encoding/json encodes its
// Value.
func (e *chromeEncoder) appendValue(b []byte, s *record, i int) ([]byte, error) {
	v := s.vals[i]
	switch s.kinds[i] {
	case argInt:
		return strconv.AppendInt(b, int64(v), 10), nil
	case argUint:
		return strconv.AppendUint(b, v, 10), nil
	case argBool:
		return strconv.AppendBool(b, v != 0), nil
	case argFloat:
		f := math.Float64frombits(v)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return b, fmt.Errorf("trace: span %q arg %q: unsupported value %v",
				e.syms[s.name].s, e.syms[s.keys[i]].s, f)
		}
		return appendFloat(b, f), nil
	case argStr:
		return append(b, e.strs[v].json...), nil
	case argNS:
		return appendNanos(b, int64(v)), nil
	default:
		b = append(b, `"0x`...)
		b = strconv.AppendUint(b, v, 16)
		return append(b, '"'), nil
	}
}

// appendString appends s as a JSON string. Printable ASCII other than
// `"`, `\`, `<`, `>` and `&` is copied as is; any other string takes
// encoding/json's HTML-safe escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMicros appends ps picoseconds as the microsecond number
// encoding/json writes for float64(ps)/1e6. Below 2^52 that float is the
// nearest double to the exact decimal ps/10^6 and the doubles there are
// closer than 1e-6 apart, so the shortest round-trip form is the exact
// decimal: the integer part and up to six fractional digits, trailing
// zeros trimmed. Elsewhere the float path formats it.
func appendMicros(b []byte, ps int64) []byte {
	if ps < 0 || ps >= 1<<52 {
		return appendFloat(b, float64(ps)/psPerMicro)
	}
	return appendFrac(strconv.AppendInt(b, ps/1e6, 10), ps%1e6, 6)
}

// appendNanos appends ps picoseconds as the nanosecond number
// encoding/json writes for psToNS(ps), by appendMicros' argument: below
// 2^52 the doubles near ps/10^3 are closer than 1e-3 apart.
func appendNanos(b []byte, ps int64) []byte {
	if ps < 0 || ps >= 1<<52 {
		return appendFloat(b, psToNS(ps))
	}
	return appendFrac(strconv.AppendInt(b, ps/1e3, 10), ps%1e3, 3)
}

// appendFrac appends the fraction frac/10^digits, 0 <= frac < 10^digits,
// as a point and its digits with trailing zeros trimmed; nothing when it is
// zero.
func appendFrac(b []byte, frac int64, digits int) []byte {
	if frac == 0 {
		return b
	}
	var tmp [6]byte
	for i := digits - 1; i >= 0; i-- {
		tmp[i] = byte('0' + frac%10)
		frac /= 10
	}
	for tmp[digits-1] == '0' {
		digits--
	}
	return append(append(b, '.'), tmp[:digits]...)
}

// appendFloat appends a finite f as encoding/json does: ES6 number form,
// exponent notation outside [1e-6, 1e21) with an unpadded exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
