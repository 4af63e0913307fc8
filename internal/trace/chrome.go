package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// keeping no per-span state, emits the spans in time order through a hold
// buffer of the few that log order has out of place (exportOrder), with no
// global sort, and appends each event to one buffer it writes out in
// 64 KiB pieces, copying the JSON encodings the intern tables hold for its
// strings and the event heads and pid/tid fragments it encodes once, and
// formatting its numbers from integers in place. Its
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

	// Number the (pid, tid) tracks in first-seen order so Perfetto shows
	// "channel 1 / req-link" style tracks, and each span's (name,
	// category, phase) event head.
	x := exportTables{heads: make([]int32, len(syms)*headsPerSym), headKeys: make([]int, 0, 16), nsyms: len(syms)}
	if n > 0 {
		r.log.scanTracks(x.number)
	}
	// process_name metadata goes out in ascending pid order, after the
	// thread_name metadata: pid discovery order depends on which component
	// traced first, the sorted order does not. The few pids are sorted in
	// place, with their track tables.
	pids, tracks := x.pids, x.tracks
	for i := 1; i < len(pids); i++ {
		for j := i; j > 0 && pids[j] < pids[j-1]; j-- {
			pids[j], pids[j-1] = pids[j-1], pids[j]
			tracks[j], tracks[j-1] = tracks[j-1], tracks[j]
		}
	}
	x.indexPIDs()

	// Encode each track's pid/tid fragment and each head once, into one
	// arena: a track takes at most 36 bytes, `,"pid":` and `,"tid":` with
	// an int32 each, and a head its name's JSON plus at most 38,
	// `{"name":`, `,"cat":"crypto` and `","ph":"X","ts":`.
	order, headKeys := x.order, x.headKeys
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

	e := chromeEncoder{w: w, buf: make([]byte, 0, 64<<10), syms: syms, strs: strs, rank: symRanks(syms)}
	b := append(e.buf, `{"displayTimeUnit":"ns","otherData":{"droppedSpans":`...)
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
	e.buf = b
	for i, k := range order {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendMetadata(e.buf, "thread_name", k.pid, i+1, syms[k.tid].json)
		if err := e.spill(); err != nil {
			return err
		}
	}
	for _, pid := range pids {
		name := `"cpu"`
		if pid > 0 {
			name = `"channel ` + strconv.Itoa(int(pid-1)) + `"`
		}
		e.buf = appendMetadata(append(e.buf, ','), "process_name", pid, 0, name)
		if err := e.spill(); err != nil {
			return err
		}
	}
	if n > 0 {
		err := r.log.exportOrder(x.number, func(s *record, trk, head int32) error {
			s.name = sym(headKeys[head-1] / headsPerSym)
			var err error
			if e.buf, err = e.appendSpan(append(e.buf, ','), s, headFrags[head-1], trackFrags[trk-1]); err != nil {
				return err
			}
			return e.spill()
		})
		if err != nil {
			return err
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, "}\n"...)
	_, err := w.Write(e.buf)
	return err
}

// exportTables numbers the export's tracks and event heads in first-seen
// log order.
type exportTables struct {
	order  []trackKey // the tracks, in number order
	pids   []int32    // the pids seen
	tracks [][]int32  // tracks[p][tid]: the track of pids[p] and tid, 0 until seen
	// byPID[pid] is 1 + the index of a pid below len(byPID) in pids, 0
	// until seen, so the common small pids need no search.
	byPID    [16]int32
	heads    []int32 // heads[headKey(s)]: the event head of s, 0 until seen
	headKeys []int   // headKey of each head, in number order
	nsyms    int     // the name table's size: the tids a pid can take
}

type trackKey struct {
	pid int32
	tid sym
}

// number returns the track and event head of the span whose head fields s
// holds, both numbered from 1, numbering them when first seen.
func (x *exportTables) number(s *record) (trk, head int32) {
	var p int
	if uint32(s.pid) < uint32(len(x.byPID)) && x.byPID[s.pid] > 0 {
		p = int(x.byPID[s.pid]) - 1
	} else if p = slices.Index(x.pids, s.pid); p < 0 {
		p = len(x.pids)
		x.pids = append(x.pids, s.pid)
		x.tracks = append(x.tracks, make([]int32, x.nsyms))
		x.indexPIDs()
	}
	t := &x.tracks[p][s.tid]
	if *t == 0 {
		x.order = append(x.order, trackKey{s.pid, s.tid})
		*t = int32(len(x.order))
	}
	h := &x.heads[headKey(s)]
	if *h == 0 {
		x.headKeys = append(x.headKeys, headKey(s))
		*h = int32(len(x.headKeys))
	}
	return *t, *h
}

// indexPIDs rebuilds byPID from pids.
func (x *exportTables) indexPIDs() {
	x.byPID = [len(x.byPID)]int32{}
	for p, pid := range x.pids {
		if uint32(pid) < uint32(len(x.byPID)) {
			x.byPID[pid] = int32(p + 1)
		}
	}
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
// oldest first, and passes them to visit.
func (l *spanLog) scanTracks(visit func(s *record) (trk, head int32)) {
	var s record
	for k, c := range l.chunks {
		for off := l.start(k); off < len(c.b); {
			var b []byte
			b, off = span(c.b, off)
			s.decodeTrack(b)
			visit(&s)
		}
	}
}

// exportOrder decodes the retained spans in stable time order, by emitted
// begin time, ties in log order, and calls emit with each, its track and
// its event head, which number gives it. Viewers do not require the order,
// but it keeps the export deterministic and per-track monotonic.
//
// The log is nearly in time order already, so rather than sort it the pass
// holds back only the spans a later one may precede: once span i is held,
// every held span at or below a lower bound on the begin times of the
// spans after i is emitted, least first. A later span then begins no
// earlier, and on a tie comes later in the log. The bound is the least
// begin time the log keeps for each block of a chunk, taken over the
// blocks from the one where span i+1 starts on, and over later chunks; it
// counts evicted spans too, which only lowers it. The walk decodes each
// span once: its head, track and begin time when it is held, its body
// (duration, request id and args) when it is emitted.
//
// The held spans are kept in emission order by insertion from the back.
// The log holds each request's components before its envelope, which
// begins first, so a span mostly lands at the back, an envelope ahead of
// its request's held components, and the pass costs O(n) on a traced run,
// holding about a block's spans. On a log recorded in reverse every span
// is held and lands at the front: O(n^2) moves of 32-byte entries.
func (l *spanLog) exportOrder(number func(*record) (trk, head int32), emit func(s *record, trk, head int32) error) error {
	// after[k] is the least sort key of the spans of chunks k.., +Inf at
	// k = len(chunks).
	after := make([]float64, len(l.chunks)+1)
	after[len(l.chunks)] = math.Inf(1)
	for k := len(l.chunks) - 1; k >= 0; k-- {
		after[k] = min(tsKey(slices.Min(l.chunks[k].least[:])), after[k+1])
	}
	held := holdBuffer{spans: make([]heldSpan, 0, 128)}
	var s record
	// bound[i] is the least sort key of the spans that start in block i of
	// the chunk walked or later.
	var bound [len(chunk{}.least)]float64
	for k, c := range l.chunks {
		least := after[k+1]
		for i := len(c.least) - 1; i >= 0; i-- {
			least = min(tsKey(c.least[i]), least)
			bound[i] = least
		}
		for off := l.start(k); off < len(c.b); {
			b, next := span(c.b, off)
			d := s.decodeTrack(b)
			s.begin = sim.Time(d.uvarint())
			trk, head := number(&s)
			held.insert(heldSpan{key: tsKey(s.begin), begin: s.begin, k: int32(k), body: int32(off+1+d.i)<<8 | int32(b[0]), trk: trk, head: head})
			off = next
			floor := after[k+1] // past the chunk's last span
			if next < len(c.b) {
				floor = bound[next>>blockShift]
			}
			for ; held.lo < len(held.spans) && held.spans[held.lo].key <= floor; held.lo++ {
				p := &held.spans[held.lo]
				s.begin = p.begin
				s.decodeHeadByte(byte(p.body))
				s.decodeBody(reader{b: l.chunks[p.k].b, i: int(p.body >> 8)})
				if err := emit(&s, p.trk, p.head); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tsKey is the export's sort key: the span's begin time as emitted.
func tsKey(t sim.Time) float64 { return float64(t) / psPerMicro }

// heldSpan is a span exportOrder holds back, decoded up to its body.
type heldSpan struct {
	key   float64 // its sort key
	begin sim.Time
	k     int32 // its chunk
	// body is its body's offset in the chunk << 8 | its head byte, which
	// holds its phase and arg count; offsets below chunkBytes fit.
	body      int32
	trk, head int32 // its track and event head
}

// holdBuffer is the spans exportOrder holds back, spans[lo:], sorted by
// key, ties in log order.
type holdBuffer struct {
	spans []heldSpan
	lo    int
}

// insert adds a span that comes after every held span in the log.
func (h *holdBuffer) insert(s heldSpan) {
	switch {
	case h.lo == len(h.spans):
		h.spans, h.lo = h.spans[:0], 0
	case len(h.spans) == cap(h.spans) && 2*h.lo >= len(h.spans):
		// Reuse the popped front rather than grow, once it is at least
		// half the buffer, so the copies cost O(1) per span.
		h.spans = h.spans[:copy(h.spans, h.spans[h.lo:])]
		h.lo = 0
	}
	q := append(h.spans, s)
	j := len(q) - 1
	for ; j > h.lo && q[j-1].key > s.key; j-- {
		q[j] = q[j-1]
	}
	q[j] = s
	h.spans = q
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

// chromeEncoder appends each event to its buffer, which it writes out
// whenever less than 1 KiB of it is left.
type chromeEncoder struct {
	w    io.Writer
	buf  []byte     // output not yet written
	syms []symEntry // names, TIDs and arg keys
	strs []symEntry // string arg values
	rank []int32    // symRanks(syms)

	// req is the last request id tagged, 0 before the first (no span is
	// tagged with 0), and reqBuf[:reqLen] its args entry: in time order a
	// span mostly follows one of the same request.
	req    uint64
	reqLen int
	reqBuf [32]byte
}

// reqEntry returns the args entry tagging a span with request id.
func (e *chromeEncoder) reqEntry(id uint64) []byte {
	if id != e.req {
		e.req = id
		e.reqLen = len(appendDecimal(append(e.reqBuf[:0], `"req":`...), id, 0))
	}
	return e.reqBuf[:e.reqLen]
}

// spill writes the buffer out once less than 1 KiB of it is left, so a
// typical event is appended without growing it.
func (e *chromeEncoder) spill() error {
	if cap(e.buf)-len(e.buf) >= 1024 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
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
	// Each entry is its key's rank << 8 | 1 + its arg index, or 0 for the
	// request tag, so that sorting orders the entries by key, ties in the
	// order they are set.
	var refs [1 + maxArgs]uint64
	n := 0
	if s.req != 0 {
		refs[0], n = uint64(e.rank[symReq])<<8, 1
	}
	for i, k := range s.keys[:s.nargs] {
		refs[n] = uint64(e.rank[k])<<8 | uint64(i+1)
		n++
	}
	// Insertion sort: a handful of keys, and allocation-free.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && refs[j] < refs[j-1]; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	b = append(b, `,"args":{`...)
	first := true
	for j, ref := range refs[:n] {
		if j+1 < n && refs[j+1]>>8 == ref>>8 {
			continue // a later duplicate wins
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		i := int(ref&0xff) - 1
		if i < 0 {
			b = append(b, e.reqEntry(s.req)...)
			continue
		}
		b = append(b, e.syms[s.keys[i]].json...)
		b = append(b, ':')
		var err error
		if b, err = e.appendValue(b, s, i); err != nil {
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
		return appendInt(b, int64(v)), nil
	case argUint:
		return appendDecimal(b, v, 0), nil
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
	return appendDecimal(b, uint64(ps), 6)
}

// appendNanos appends ps picoseconds as the nanosecond number
// encoding/json writes for psToNS(ps), by appendMicros' argument: below
// 2^52 the doubles near ps/10^3 are closer than 1e-3 apart.
func appendNanos(b []byte, ps int64) []byte {
	if ps < 0 || ps >= 1<<52 {
		return appendFloat(b, psToNS(ps))
	}
	return appendDecimal(b, uint64(ps), 3)
}

// appendInt appends v in decimal, as strconv.AppendInt does.
func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		return appendDecimal(append(b, '-'), uint64(-v), 0)
	}
	return appendDecimal(b, uint64(v), 0)
}

// appendDecimal appends v/10^scale, scale <= 6, as its exact decimal: the
// integer part, then, unless the fraction is zero, a point and the
// fraction's digits with trailing zeros trimmed. It writes the digits in
// place, back to front, two at a time where it can.
func appendDecimal(b []byte, v uint64, scale int) []byte {
	for ; scale >= 2 && v%100 == 0; scale -= 2 {
		v /= 100
	}
	if scale > 0 && v%10 == 0 {
		v /= 10
		scale--
	}
	// n is the length: v's digits, at least scale+1 of them, and the point.
	n := decimalLen(v)
	if scale > 0 {
		n = max(n, scale+1) + 1
	}
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	out := b[len(b)-n:]
	i := n
	if scale > 0 {
		for ; scale >= 2; scale -= 2 {
			i -= 2
			d := v % 100
			v /= 100
			out[i], out[i+1] = digitPairs[2*d], digitPairs[2*d+1]
		}
		if scale == 1 {
			i--
			out[i] = byte('0' + v%10)
			v /= 10
		}
		i--
		out[i] = '.'
	}
	for v >= 100 {
		i -= 2
		d := v % 100
		v /= 100
		out[i], out[i+1] = digitPairs[2*d], digitPairs[2*d+1]
	}
	if v >= 10 {
		out[i-2], out[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		out[i-1] = byte('0' + v)
	}
	return b
}

// decimalLen returns the number of decimal digits of v, 1 for 0: from its
// bit length, times log10(2) as 1233/4096, and one compare.
func decimalLen(v uint64) int {
	v |= 1
	t := bits.Len64(v) * 1233 >> 12
	if v < pow10[t] {
		return t
	}
	return t + 1
}

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// digitPairs holds the two decimal digits of each number below 100.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

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
