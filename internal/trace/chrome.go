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
// The exporter streams: it walks the ring in place, sorts a key array of
// begin times, and appends each event straight into a buffered writer,
// copying the JSON encodings the intern table holds for its strings. Its
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
	// Perfetto shows "channel 1 / req-link" style tracks. tracks[p][tid] is
	// the track of pids[p] and tid, 0 until seen.
	type trackKey struct {
		pid int32
		tid sym
	}
	var order []trackKey
	var pids []int32
	var tracks [][]int32
	// trk[i] is span i's track.
	trk := make([]int32, n)
	for i := range n {
		s := r.at(i)
		p := slices.Index(pids, s.pid)
		if p < 0 {
			p = len(pids)
			pids = append(pids, s.pid)
			tracks = append(tracks, make([]int32, len(syms)))
		}
		t := &tracks[p][s.tid]
		if *t == 0 {
			order = append(order, trackKey{s.pid, s.tid})
			*t = int32(len(order))
		}
		trk[i] = *t
	}
	// process_name metadata goes out in ascending pid order, after the
	// thread_name metadata: pid discovery order depends on which component
	// traced first, the sorted order does not.
	slices.Sort(pids)
	idx := r.exportOrder(n)

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
	for _, i := range idx {
		b, err := e.appendSpan(append(e.next(), ','), r.at(int(i)), trk[i])
		if err != nil {
			return err
		}
		if _, err := e.w.Write(b); err != nil {
			return err
		}
	}
	b = e.next()
	if n > 0 {
		b = append(b, ']')
	}
	if _, err := e.w.Write(append(b, "}\n"...)); err != nil {
		return err
	}
	return e.w.Flush()
}

// exportOrder returns the n retained spans' positions in stable time
// order: by emitted begin time, ties in ring order. Viewers do not require
// it, but it keeps the export deterministic and per-track monotonic.
func (r *Recorder) exportOrder(n int) []int32 {
	type key struct {
		ts float64
		i  int32
	}
	keys, idx := make([]key, n), make([]int32, n)
	for i := range n {
		keys[i] = key{tsKey(r.at(i).begin), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.ts < b.ts:
			return -1
		case a.ts > b.ts:
			return 1
		}
		return int(a.i - b.i)
	})
	for i, k := range keys {
		idx[i] = k.i
	}
	return idx
}

// tsKey is the export's sort key: the span's begin time as emitted.
func tsKey(t sim.Time) float64 { return float64(t) / psPerMicro }

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

// appendSpan appends one "X" or "i" event on integer track tid.
func (e *chromeEncoder) appendSpan(b []byte, s *record, tid int32) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = append(b, e.syms[s.name].json...)
	b = append(b, `,"cat":"`...)
	b = append(b, s.cat.String()...)
	if s.phase == PhaseInstant {
		b = append(b, `","ph":"i","ts":`...)
		b = appendMicros(b, int64(s.begin))
	} else {
		b = append(b, `","ph":"X","ts":`...)
		b = appendMicros(b, int64(s.begin))
		b = append(b, `,"dur":`...)
		b = appendMicros(b, int64(s.end-s.begin))
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(s.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
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
