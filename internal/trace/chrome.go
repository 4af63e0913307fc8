package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"

	"obfusmem/internal/sim"
)

// Chrome trace-event JSON export (the "JSON Array Format" object variant),
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing. Timestamps
// are emitted in microseconds (the format's unit) with sub-nanosecond
// precision preserved as fractions; displayTimeUnit asks viewers to render
// in nanoseconds. pid maps to a memory channel (pid 0 is the processor
// side) and tid to one engine, link, or bank within it.
//
// The exporter streams: it walks the ring in place, sorts an index, and
// appends each event straight into a buffered writer. Its output is byte
// for byte what encoding/json writes for the equivalent object (field
// order, omitempty, sorted args keys, HTML-safe strings, ES6 number
// formatting); the reference encoding/json exporter in chrome_test.go and
// FuzzChromeExport hold it to that.

const psPerMicro = 1e6

// WriteChromeTrace exports the retained spans as Chrome trace-event JSON.
// The dropped-span count is embedded in otherData so truncation is never
// silent; callers should additionally surface it to the user.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	n := r.Len()

	// Intern (pid, tid-name) pairs to integer tids in first-seen order so
	// Perfetto shows "channel 1 / req-link" style tracks.
	type trackKey struct {
		pid int
		tid string
	}
	tracks := make(map[trackKey]int32)
	var order []trackKey
	var pids []int
	// idx is the export order (ring positions); trk[i] is span i's track.
	idx, trk := make([]int32, n), make([]int32, n)
	for i := range n {
		s := r.at(i)
		k := trackKey{s.PID, s.TID}
		t, ok := tracks[k]
		if !ok {
			t = int32(len(order) + 1)
			tracks[k] = t
			order = append(order, k)
			if !slices.Contains(pids, s.PID) {
				pids = append(pids, s.PID)
			}
		}
		idx[i], trk[i] = int32(i), t
	}
	// process_name metadata goes out in ascending pid order, after the
	// thread_name metadata: pid discovery order depends on which component
	// traced first, the sorted order does not.
	slices.Sort(pids)
	// Stable time order: viewers do not require it, but it keeps the export
	// deterministic and per-track monotonic.
	slices.SortStableFunc(idx, func(a, b int32) int {
		ta, tb := tsKey(r.at(int(a)).Begin), tsKey(r.at(int(b)).Begin)
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
		return 0
	})

	e := chromeEncoder{w: bufio.NewWriterSize(w, 64<<10)}
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
		if _, err := e.w.Write(appendMetadata(b, "thread_name", k.pid, i+1, k.tid)); err != nil {
			return err
		}
	}
	for _, pid := range pids {
		name := "cpu"
		if pid > 0 {
			name = "channel " + strconv.Itoa(pid-1)
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

// tsKey is the export's sort key: the span's begin time as emitted.
func tsKey(t sim.Time) float64 { return float64(t) / psPerMicro }

// chromeEncoder appends each event into the free tail of its buffered
// writer, so a typical event is encoded in place with no copy.
type chromeEncoder struct {
	w    *bufio.Writer
	args []argRef // scratch for one event's args, reused
}

// argRef names one args entry: Args[i], or the request tag when i < 0.
type argRef struct {
	key string
	i   int
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

// appendMetadata appends one "M" event naming a thread or process.
func appendMetadata(b []byte, kind string, pid, tid int, name string) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","ts":0,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = appendString(b, name)
	return append(b, "}}"...)
}

// appendSpan appends one "X" or "i" event on integer track tid.
func (e *chromeEncoder) appendSpan(b []byte, s *Span, tid int32) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = appendString(b, s.Name)
	b = append(b, `,"cat":`...)
	b = appendString(b, s.Cat.String())
	if s.Phase == PhaseInstant {
		b = append(b, `,"ph":"i","ts":`...)
		b = appendMicros(b, int64(s.Begin))
	} else {
		b = append(b, `,"ph":"X","ts":`...)
		b = appendMicros(b, int64(s.Begin))
		b = append(b, `,"dur":`...)
		b = appendMicros(b, int64(s.End-s.Begin))
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(s.PID), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if s.Phase == PhaseInstant {
		b = append(b, `,"s":"t"`...)
	}
	b, err := e.appendArgs(b, s)
	return append(b, '}'), err
}

// appendArgs writes the args object as encoding/json writes the export's
// map[string]any: keys sorted, "req" set first so a later Arg with the
// same key replaces it, and the last of several equal keys winning.
func (e *chromeEncoder) appendArgs(b []byte, s *Span) ([]byte, error) {
	if len(s.Args) == 0 && s.Req == 0 {
		return b, nil
	}
	e.args = e.args[:0]
	if s.Req != 0 {
		e.args = append(e.args, argRef{key: "req", i: -1})
	}
	for i, a := range s.Args {
		e.args = append(e.args, argRef{key: a.Key, i: i})
	}
	// Insertion sort: a handful of keys, stable, and allocation-free.
	for i := 1; i < len(e.args); i++ {
		for j := i; j > 0 && e.args[j].key < e.args[j-1].key; j-- {
			e.args[j], e.args[j-1] = e.args[j-1], e.args[j]
		}
	}
	b = append(b, `,"args":{`...)
	first := true
	for i, a := range e.args {
		if i+1 < len(e.args) && e.args[i+1].key == a.key {
			continue // a later duplicate wins
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendString(b, a.key)
		b = append(b, ':')
		if a.i < 0 {
			b = strconv.AppendUint(b, s.Req, 10)
			continue
		}
		var err error
		if b, err = appendValue(b, s.Args[a.i].Val); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendValue appends v as encoding/json would. The cases cover every
// type the tracing sites pass; anything else goes through json.Marshal.
func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case string:
		return appendString(b, v), nil
	case bool:
		return strconv.AppendBool(b, v), nil
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	case int64:
		return strconv.AppendInt(b, v, 10), nil
	case uint64:
		return strconv.AppendUint(b, v, 10), nil
	case float64:
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			return appendFloat(b, v), nil
		}
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
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
	b = strconv.AppendInt(b, ps/1e6, 10)
	frac := ps % 1e6
	if frac == 0 {
		return b
	}
	digits := 6
	for frac%10 == 0 {
		frac /= 10
		digits--
	}
	b = append(b, '.')
	var tmp [6]byte
	for i := digits - 1; i >= 0; i-- {
		tmp[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(b, tmp[:digits]...)
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
