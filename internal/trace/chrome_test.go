package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// refChromeEvent and refChromeFile are the export's shape as encoding/json
// structs, used only by referenceChromeTrace.
type refChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type refChromeFile struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]any   `json:"otherData"`
	TraceEvents     []refChromeEvent `json:"traceEvents"`
}

// referenceChromeTrace is the original encoding/json exporter, kept as the
// definition WriteChromeTrace must match byte for byte: it builds every
// event as a struct with a map of args and encodes the whole file at once.
func referenceChromeTrace(r *Recorder, w io.Writer) error {
	spans := r.Spans()

	type track struct{ pid, tid int }
	tids := make(map[string]track)
	pids := make(map[int]bool)
	var events []refChromeEvent
	for _, s := range spans {
		pids[s.PID] = true
		key := fmt.Sprintf("%d/%s", s.PID, s.TID)
		tr, ok := tids[key]
		if !ok {
			tr = track{pid: s.PID, tid: len(tids) + 1}
			tids[key] = tr
			events = append(events, refChromeEvent{
				Name: "thread_name", Ph: "M", PID: s.PID, TID: tr.tid,
				Args: map[string]any{"name": s.TID},
			})
		}
		ev := refChromeEvent{
			Name: s.Name,
			Cat:  s.Cat.String(),
			PID:  s.PID,
			TID:  tr.tid,
			TS:   float64(s.Begin) / psPerMicro,
		}
		if len(s.Args) > 0 || s.Req != 0 {
			ev.Args = make(map[string]any, len(s.Args)+1)
			if s.Req != 0 {
				ev.Args["req"] = s.Req
			}
			for _, a := range s.Args {
				ev.Args[a.Key] = a.Value()
			}
		}
		if s.Phase == PhaseInstant {
			ev.Ph = "i"
			ev.Scope = "t"
		} else {
			ev.Ph = "X"
			dur := float64(s.End-s.Begin) / psPerMicro
			ev.Dur = &dur
		}
		events = append(events, ev)
	}
	pidList := make([]int, 0, len(pids))
	for pid := range pids {
		pidList = append(pidList, pid)
	}
	sort.Ints(pidList)
	for _, pid := range pidList {
		name := "cpu"
		if pid > 0 {
			name = fmt.Sprintf("channel %d", pid-1)
		}
		events = append(events, refChromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": name},
		})
	}

	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return events[i].TS < events[j].TS
	})

	enc := json.NewEncoder(w)
	return enc.Encode(refChromeFile{
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"droppedSpans":  r.Dropped(),
			"retainedSpans": r.Len(),
			"spanLimit":     r.Limit(),
		},
		TraceEvents: events,
	})
}

// checkAgainstReference exports r both ways and requires identical bytes,
// or an error from both.
func checkAgainstReference(t *testing.T, r *Recorder) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := r.WriteChromeTrace(&got)
	wantErr := referenceChromeTrace(r, &want)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("WriteChromeTrace error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("export differs from reference at byte %d:\n got  ...%s\n want ...%s",
			i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// exportRecorder records total spans into a ring of limit spans, shaped
// like a traced ObfusMem run: request envelopes around bus, crypto and PCM
// spans on a fixed set of tracks, decode instants, and args of every kind.
func exportRecorder(limit, total int) *Recorder {
	r := New(limit)
	at := sim.Time(0)
	for r.Len()+int(r.Dropped()) < total {
		ch := int(at/1000) % 2
		pid := ChannelPID(ch)
		id := r.BeginRequest(names.ReqRead, uint64(at)*64, at)
		r.Span(pid, "proc-aes", CatCrypto, names.SpanEncryptPads, at, at+3100, Int("pads", 2))
		r.Span(pid, "proc-md5", CatCrypto, names.SpanMACRequest, at, at+7300,
			Nanos("slack_ns", 4200), Float("ratio", 0.7))
		r.Span(pid, "req-link", CatBus, "read", at+3100, at+9100,
			Int("bytes", 72), Str("type", "read"), Bool("dummy", false), Uint("seq", uint64(at)))
		r.Instant(pid, "ctl", names.SpanDecode, at+9100,
			Int("rank", 0), Int("bank", int64(ch)), Int("row", int64(at/64)), Bool("write", false))
		r.Span(pid, fmt.Sprintf("bank %d", ch), CatPCM, names.SpanRowMiss, at+9100, at+69100,
			Int("row", int64(at/64)), Bool("write", false))
		r.EndRequest(id, at+80000)
		at += 1337
	}
	return r
}

// beginsRecorder records one span per begin time, in order, into a ring
// of limit spans. Spans alternate between two tracks and the two phases
// and carry their record number, so any reordering shows in the export.
func beginsRecorder(limit int, begins []sim.Time) *Recorder {
	r := New(limit)
	for i, at := range begins {
		tid := []string{"req-link", "ctl"}[i%2]
		if i%3 == 0 {
			r.Instant(1, tid, names.SpanDecode, at, Int("n", int64(i)))
		} else {
			r.Span(1, tid, CatBus, "read", at, at+500, Int("n", int64(i)))
		}
	}
	return r
}

// TestChromeExportMatchesReference holds the streaming exporter to the
// reference on recorders that wrap inside and across span chunks, and on
// rings far from time order, where the export order must hold back many
// spans at once and still break every tie by ring position.
func TestChromeExportMatchesReference(t *testing.T) {
	for _, limit := range []int{1, 5, chunkSpans, chunkSpans + 904} {
		r := exportRecorder(limit, 3*limit)
		if r.Dropped() == 0 {
			t.Fatalf("limit %d: ring did not wrap", limit)
		}
		checkAgainstReference(t, r)
	}
	checkAgainstReference(t, New(10))          // empty: "traceEvents":null
	checkAgainstReference(t, (*Recorder)(nil)) // disabled recorder

	const n = chunkSpans + 904
	seq := func(n int, at func(i int) sim.Time) []sim.Time {
		b := make([]sim.Time, n)
		for i := range b {
			b[i] = at(i)
		}
		return b
	}
	// Recorded in reverse time order, in runs of three equal begins: the
	// whole ring is held.
	checkAgainstReference(t, beginsRecorder(n, seq(n, func(i int) sim.Time { return sim.Time((n-i)/3) * 1000 })))
	// Every span at one begin time: ring position alone decides.
	checkAgainstReference(t, beginsRecorder(n, seq(n, func(int) sim.Time { return 7000 })))
	// The same, with a last span that begins first, so every tied span is
	// held until the end.
	checkAgainstReference(t, beginsRecorder(n, seq(n, func(i int) sim.Time { return 7000 - sim.Time(i/(n-1)) })))
	// A wrapped ring whose oldest retained spans begin last: of 2500
	// records into 1000 slots, records 1500..1999 are retained first but
	// begin after records 2000..2499.
	wrapped := beginsRecorder(1000, seq(2500, func(i int) sim.Time {
		if i < 2000 {
			return 1e9 + sim.Time(i%7)*1000
		}
		return sim.Time(i%5) * 1000
	}))
	if wrapped.Dropped() != 1500 {
		t.Fatalf("wrapped ring dropped %d spans, want 1500", wrapped.Dropped())
	}
	checkAgainstReference(t, wrapped)
	// Begin times just above 2^53 ps and then just above 2^52 ps, each in
	// descending order. From 2^52 ps on, timestamps take appendMicros'
	// float path; from 2^53 ps on, distinct begins round to one float key
	// and must tie as they do in the reference.
	huge := seq(600, func(i int) sim.Time {
		if i < 300 {
			return 1<<53 + sim.Time(299-i)*3/2
		}
		return 1<<52 + sim.Time(599-i)*3/2
	})
	ties := 0
	for i := 1; i < len(huge); i++ {
		if huge[i] != huge[i-1] && tsKey(huge[i]) == tsKey(huge[i-1]) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no distinct begin times share a key above 2^53 ps")
	}
	checkAgainstReference(t, beginsRecorder(1000, huge))
	// Categories outside the declared ones export as "other", sharing
	// CatOther's event head and no other name's.
	odd := New(10)
	for i, c := range []Category{CatPCM, -1, numCategories, 7, CatOther} {
		odd.Span(0, "t", c, "read", sim.Time(i), sim.Time(i+1))
		odd.Span(0, "t", CatBus, "write", sim.Time(i), sim.Time(i+1))
	}
	checkAgainstReference(t, odd)
}

// TestExportOrderMatchesStableSort checks the export's order on its own:
// on logs of at least three chunks recorded in random, nearly sorted and
// reversed begin order, with and without eviction, exportOrder emits the
// spans of Spans() stably sorted by emitted begin time, ties in log order,
// each with its body (duration, request id and args). The reversed log is
// the hold buffer's worst case: every span is held.
func TestExportOrderMatchesStableSort(t *testing.T) {
	const n = 5000 // about 50 bytes a span: four chunks
	rng := xrand.New(11)
	orders := []struct {
		name string
		at   func(i int) sim.Time
	}{
		{"random", func(int) sim.Time { return sim.Time(rng.Uint64n(1e5)) * 1000 }},
		{"nearly sorted", func(i int) sim.Time { return sim.Time(i)*1000 + sim.Time(rng.Uint64n(8))*700 }},
		{"reversed", func(i int) sim.Time { return sim.Time(2*n-i) * 1000 }},
	}
	for _, o := range orders {
		for _, total := range []int{n, 2 * n} {
			r := New(n)
			for i := range total {
				at := o.at(i)
				args := []Arg{Int("n", int64(i)), Bool("odd", i%2 == 1), Uint("a", ^uint64(i)), Uint("b", ^uint64(i)>>1), Uint("c", ^uint64(i)>>2)}
				if i%3 == 0 {
					r.Instant(1, "t", "i", at, args...)
				} else {
					r.Span(1, "t", CatBus, "s", at, at+sim.Time(i), args...)
				}
			}
			if len(r.log.chunks) < 3 || (r.Dropped() == 0) != (total == n) {
				t.Fatalf("%s, %d spans: %d chunks and %d dropped, want at least 3 chunks and drops past %d",
					o.name, total, len(r.log.chunks), r.Dropped(), n)
			}
			want := r.Spans()
			sort.SliceStable(want, func(a, b int) bool { return tsKey(want[a].Begin) < tsKey(want[b].Begin) })
			var got []Span
			err := r.log.exportOrder(func(*record) (int32, int32) { return 1, 1 }, func(s *record, _, _ int32) error {
				sp := Span{Phase: s.phase, Begin: s.begin, End: s.end}
				for j := range s.nargs {
					sp.Args = append(sp.Args, Arg{kind: s.kinds[j], num: s.vals[j]})
				}
				got = append(got, sp)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d spans: exported %d spans, want %d", o.name, total, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				same := g.Phase == w.Phase && g.Begin == w.Begin && g.End == w.End && len(g.Args) == len(w.Args)
				for j := 0; same && j < len(w.Args); j++ {
					same = g.Args[j].Value() == w.Args[j].Value()
				}
				if !same {
					t.Fatalf("%s, %d spans: exported span %d is %+v, want %+v", o.name, total, i, g, w)
				}
			}
		}
	}
}

// chunkSpans is a span limit whose log of exportRecorder spans fills
// several chunks, so the export tests wrap inside and across chunks.
const chunkSpans = 4096

// TestRingChunks checks Spans() against a plain slice model across chunk
// boundaries, before and after the log wraps and recycles its chunks.
func TestRingChunks(t *testing.T) {
	const limit = chunkBytes/8 + 904 // instants of about 32 bytes: 4 to 5 chunks
	r := New(limit)
	var model []sim.Time
	for i := 0; i < 3*limit; i++ {
		r.Instant(0, "t", "i", sim.Time(i), Uint("a", ^uint64(i)), Uint("b", 1<<63|uint64(i)))
		model = append(model, sim.Time(i))
		if len(model) > limit {
			model = model[1:]
		}
		if i%1999 != 0 && i != limit-1 && i != limit {
			continue
		}
		spans := r.Spans()
		if len(spans) != len(model) || r.Len() != len(model) {
			t.Fatalf("after %d pushes: %d spans, Len %d, want %d", i+1, len(spans), r.Len(), len(model))
		}
		for j, s := range spans {
			if s.Begin != model[j] {
				t.Fatalf("after %d pushes: span %d begins at %d, want %d", i+1, j, s.Begin, model[j])
			}
		}
	}
	if got, want := r.Dropped(), uint64(2*limit); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	if len(r.log.chunks) < 4 || len(r.log.spare) > 1 {
		t.Errorf("log holds %d chunks and %d spares, want several chunks and at most one spare",
			len(r.log.chunks), len(r.log.spare))
	}
}

// TestAppendMicros compares the integer-picosecond formatters with
// encoding/json's rendering of float64(ps)/1e6 (timestamps) and
// float64(ps)/1e3 (the envelope's breakdown) on edge and random values.
func TestAppendMicros(t *testing.T) {
	vals := []int64{0, 1, 9, 10, 999_999, 1_000_000, 1_000_001, 123_456_789,
		1<<52 - 1, 1 << 52, 1<<52 + 1, 1 << 53, 1<<53 + 1, math.MaxInt64, -1, -1_500_000, math.MinInt64}
	rng := xrand.New(19)
	for range 200_000 {
		vals = append(vals, int64(rng.Uint64n(1<<52)), int64(rng.Uint64n(1<<30)), int64(rng.Uint64()))
	}
	for _, ps := range vals {
		want, err := json.Marshal(float64(ps) / psPerMicro)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMicros(nil, ps); !bytes.Equal(got, want) {
			t.Fatalf("appendMicros(%d) = %s, want %s", ps, got, want)
		}
		want, err = json.Marshal(psToNS(ps))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendNanos(nil, ps); !bytes.Equal(got, want) {
			t.Fatalf("appendNanos(%d) = %s, want %s", ps, got, want)
		}
	}
}

// TestChromeExportAllocs is the export's perf gate: a fixed number of
// allocations per export, whatever the span count.
func TestChromeExportAllocs(t *testing.T) {
	small, large := exportRecorder(1_000, 1_000), exportRecorder(10_000, 10_000)
	export := func(r *Recorder) func() {
		return func() {
			if err := r.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := testing.AllocsPerRun(20, export(small)), testing.AllocsPerRun(20, export(large))
	if a != b {
		t.Errorf("export allocs grow with span count: %v for 1k spans, %v for 10k", a, b)
	}
	if b > 32 {
		t.Errorf("export of 10k spans makes %v allocations, want at most 32", b)
	}
}

// BenchmarkWriteChromeTrace measures the export of a 10k-span recorder.
func BenchmarkWriteChromeTrace(b *testing.B) {
	r := exportRecorder(10_000, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := r.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzStrings are names, TIDs and arg strings that need JSON escaping:
// quotes, control bytes, HTML-unsafe <>&, invalid UTF-8, U+2028/U+2029.
var fuzzStrings = []string{"", "req-link", "bank 3", "<b>&amp;</b>", `a"b\c`, "\xff\xfe",
	"line\u2028sep\u2029", "ctl\n\t\x01\x7f", "é😀", "req", "addr"}

// fuzzRecorder replays fuzz bytes as recorder calls on a small ring.
func fuzzRecorder(data []byte) *Recorder {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	next8 := func() uint64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	str := func() string {
		k := next()
		if k < 200 {
			return fuzzStrings[int(k)%len(fuzzStrings)]
		}
		b := make([]byte, k%8)
		for i := range b {
			b[i] = next()
		}
		return string(b)
	}
	at := func() sim.Time {
		switch next() % 4 {
		case 0:
			return sim.Time(next())
		case 1:
			return 1<<52 - 128 + sim.Time(next()) // straddles 2^52
		case 2:
			return sim.Time(next8())
		default:
			return sim.Time(binary.LittleEndian.Uint16([]byte{next(), next()}))*1000 + sim.Time(next())
		}
	}
	arg := func() Arg {
		key := str()
		switch next() % 8 {
		case 0:
			return Str(key, str())
		case 1:
			return Bool(key, next()&1 == 1)
		case 2:
			return Int(key, int64(int8(next())))
		case 3:
			return Int(key, int64(next8()))
		case 4:
			return Uint(key, next8())
		case 5:
			return Float(key, math.Float64frombits(next8())) // NaN and Inf included
		case 6:
			return Nanos(key, sim.Time(next8()))
		default:
			return Float(key, float64(int8(next()))/7)
		}
	}
	r := New(1 + int(next()%24))
	var id uint64
	for len(data) > 0 {
		op, pid := next(), int(next()%4)-1
		tid, name := str(), names.Name(str())
		begin := at()
		end := begin + sim.Time(next())*37
		var args []Arg
		for range next() % 4 {
			args = append(args, arg())
		}
		switch op % 4 {
		case 0:
			r.Span(pid, tid, Category(next()%byte(numCategories)), name, begin, end, args...)
		case 1:
			r.Instant(pid, tid, name, begin, args...)
		case 2:
			id = r.BeginRequest(name, uint64(begin), begin)
		default:
			r.EndRequest(id, end)
		}
	}
	return r
}

// FuzzChromeExport requires the streaming exporter to match the reference
// byte for byte (or fail alongside it) on recorders built from fuzz bytes.
func FuzzChromeExport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, fuzzRecorder(data))
	})
}
