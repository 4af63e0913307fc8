package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// TestNilRecorderIsNoOp pins the off-by-default discipline: every method on
// a nil recorder must be safe and free of observable effect.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder claims enabled")
	}
	r.Span(0, "x", CatBus, "s", 0, 10)
	r.Instant(0, "x", "i", 5)
	id := r.BeginRequest("read", 0x40, 0)
	if id != 0 {
		t.Errorf("nil BeginRequest = %d, want 0", id)
	}
	r.EndRequest(id, 100)
	if r.Len() != 0 || r.Dropped() != 0 || r.Limit() != 0 || r.Spans() != nil {
		t.Error("nil recorder has state")
	}
	att := r.Attribution("")
	if att.Requests != 0 {
		t.Error("nil recorder attributed requests")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil export is not JSON: %v", err)
	}
}

// TestRingEviction fills past the limit and checks oldest-first eviction
// with an accurate dropped count.
func TestRingEviction(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Span(0, "t", CatOther, names.Name(fmt.Sprintf("s%d", i)), sim.Time(i), sim.Time(i+1))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	spans := r.Spans()
	for i, s := range spans {
		want := fmt.Sprintf("s%d", 6+i)
		if s.Name != want {
			t.Errorf("span %d = %q, want %q (oldest-first order)", i, s.Name, want)
		}
	}
	if New(0).Limit() != DefaultLimit {
		t.Error("non-positive limit did not default")
	}
}

// TestBreakdownExact exercises the sweep partition: overlap resolved by
// priority, gaps attributed to other, residual identically zero.
func TestBreakdownExact(t *testing.T) {
	spans := []Span{
		{Cat: CatQueue, Phase: PhaseSpan, Begin: 0, End: 40},
		{Cat: CatBus, Phase: PhaseSpan, Begin: 30, End: 60}, // overlaps queue: bus wins on [30,40]
		{Cat: CatPCM, Phase: PhaseSpan, Begin: 50, End: 90}, // overlaps bus: pcm wins on [50,60]
		{Cat: CatCrypto, Phase: PhaseSpan, Begin: 100, End: 120},
		{Cat: CatCrypto, Phase: PhaseSpan, Begin: 110, End: 300}, // clipped at end=200
		{Cat: CatBus, Phase: PhaseInstant, Begin: 95, End: 95},   // instants never attribute
	}
	bd := breakdownOf(0, 200, spans)
	if bd.TotalPS != 200 {
		t.Fatalf("TotalPS = %d", bd.TotalPS)
	}
	want := map[Category]int64{
		CatQueue:  30,  // [0,30)
		CatBus:    20,  // [30,50)
		CatPCM:    40,  // [50,90)
		CatCrypto: 100, // [100,200)
		CatOther:  10,  // [90,100) uncovered
	}
	for cat, w := range want {
		if bd.Parts[cat] != w {
			t.Errorf("%v = %d ps, want %d", cat, bd.Parts[cat], w)
		}
	}
	if res := bd.ResidualPS(); res != 0 {
		t.Errorf("residual = %d ps, want 0", res)
	}

	// Degenerate windows.
	if bd := breakdownOf(100, 100, spans); bd.TotalPS != 0 || bd.ResidualPS() != 0 {
		t.Error("empty window not zero")
	}
	if bd := breakdownOf(0, 50, nil); bd.Parts[CatOther] != 50 || bd.ResidualPS() != 0 {
		t.Error("uncovered window not attributed to other")
	}
}

// breakdownOf records spans inside one request over [begin, end] on a fresh
// recorder and returns the breakdown EndRequest computed.
func breakdownOf(begin, end sim.Time, spans []Span) Breakdown {
	r := New(len(spans) + 1)
	id := r.BeginRequest(names.ReqRead, 0, begin)
	for _, s := range spans {
		if s.Phase == PhaseInstant {
			r.Instant(s.PID, s.TID, names.Name(s.Name), s.Begin)
		} else {
			r.Span(s.PID, s.TID, s.Cat, names.Name(s.Name), s.Begin, s.End)
		}
	}
	r.EndRequest(id, end)
	return r.attrib.samples.Chunk(0)[0]
}

// TestBreakdownMatchesBruteForce compares the sweep partition with a
// per-picosecond assignment to the highest-priority covering category on
// random small span sets: overlaps, spans clipped by the window, instants,
// and empty windows.
func TestBreakdownMatchesBruteForce(t *testing.T) {
	rng := xrand.New(23)
	for trial := range 20_000 {
		begin := sim.Time(rng.Uint64n(40))
		end := begin + sim.Time(rng.Uint64n(60))
		if rng.Uint64n(10) == 0 {
			end = begin // empty window
		}
		spans := make([]Span, rng.Uint64n(8))
		for i := range spans {
			b := sim.Time(rng.Uint64n(120))
			spans[i] = Span{Cat: Category(rng.Uint64n(uint64(numCategories))), Phase: PhaseSpan,
				Begin: b, End: b + sim.Time(rng.Uint64n(50))}
			if rng.Uint64n(5) == 0 {
				spans[i].Phase, spans[i].End = PhaseInstant, b
			}
		}
		var want Breakdown
		want.TotalPS = int64(end - begin)
		for ps := begin; ps < end; ps++ {
			best := CatOther
			for _, s := range spans {
				if s.Phase == PhaseSpan && s.Begin <= ps && ps < s.End && s.Cat > best {
					best = s.Cat
				}
			}
			want.Parts[best]++
		}
		got := breakdownOf(begin, end, spans)
		if got != want {
			t.Fatalf("trial %d: window [%d, %d] spans %+v:\n got  %+v\n want %+v",
				trial, begin, end, spans, got, want)
		}
		if res := got.ResidualPS(); res != 0 {
			t.Fatalf("trial %d: residual %d ps", trial, res)
		}
	}
}

// TestSpanArgsNotAliased reuses one args slice across calls: each span must
// keep the values it was recorded with.
func TestSpanArgsNotAliased(t *testing.T) {
	r := New(10)
	args := []Arg{Int("n", 1), Str("s", "first")}
	r.Span(1, "t", CatBus, "a", 0, 10, args...)
	r.Instant(1, "t", "b", 5, args...)
	args[0], args[1] = Int("n", 2), Str("s", "second")
	r.Span(1, "t", CatBus, "c", 10, 20, args...)
	spans := r.Spans()
	for i, want := range []int64{1, 1, 2} {
		if got := spans[i].Args[0].Value(); got != want {
			t.Errorf("span %d (%s) arg n = %v, want %d", i, spans[i].Name, got, want)
		}
	}
	if got := spans[0].Args[1].Value(); got != "first" {
		t.Errorf("span 0 arg s = %v, want first", got)
	}
}

// TestStringValuesKeptOutOfNameTable records a string value unique to each
// span, as the campaign's cell key is: the name table that sizes the
// export's track and key-order tables must not grow with them.
func TestStringValuesKeptOutOfNameTable(t *testing.T) {
	r := New(4)
	r.Span(0, "campaign", CatOther, "cell", 0, 1, Str("key", "k0"))
	before := len(r.syms.entries)
	for i := 1; i < 100; i++ {
		r.Span(0, "campaign", CatOther, "cell", sim.Time(i), sim.Time(i+1), Str("key", fmt.Sprint("k", i)))
	}
	if got := len(r.syms.entries); got != before {
		t.Errorf("name table grew from %d to %d entries", before, got)
	}
	if got := r.Spans()[3].Args[0].Value(); got != "k99" {
		t.Errorf("newest span's key = %v, want k99", got)
	}
}

// TestRequestAttribution drives requests through the recorder and checks
// the report: counts, kind filter, exact residual, percentile rows.
func TestRequestAttribution(t *testing.T) {
	r := New(1000)
	// Two reads (100 ps and 300 ps total) and one write (200 ps).
	mkReq := func(kind names.Name, begin, end sim.Time, busEnd sim.Time) {
		id := r.BeginRequest(kind, 0x1000, begin)
		r.Span(1, "link", CatBus, "data", begin, busEnd)
		r.EndRequest(id, end)
	}
	mkReq("read", 0, 100, 40)
	mkReq("read", 1000, 1300, 1100)
	mkReq("write", 2000, 2200, 2150)

	att := r.Attribution("")
	if att.Requests != 3 || att.Reads != 2 || att.Writes != 1 {
		t.Fatalf("counts = %d/%d/%d", att.Requests, att.Reads, att.Writes)
	}
	if att.MaxResidualPS != 0 {
		t.Fatalf("MaxResidualPS = %d, want 0", att.MaxResidualPS)
	}
	if att.Sampled != 3 {
		t.Fatalf("Sampled = %d", att.Sampled)
	}
	rows := map[string]AttributionRow{}
	for _, row := range att.Rows {
		rows[row.Component] = row
	}
	// Totals in ns: 0.1, 0.3, 0.2 -> mean 0.2, p50 0.2 (rank 2 of 3).
	if got := rows["total"].MeanNS; got < 0.199 || got > 0.201 {
		t.Errorf("total mean = %v ns", got)
	}
	if got := rows["total"].P50NS; got != 0.2 {
		t.Errorf("total p50 = %v ns", got)
	}
	// Bus parts: 40, 100, 150 ps -> mean ~0.0966 ns.
	if got := rows["bus"].MeanNS; got < 0.0966 || got > 0.0967 {
		t.Errorf("bus mean = %v ns", got)
	}
	// Component means sum to the total mean (partition is exact).
	sum := 0.0
	for _, c := range []string{"queue", "bus", "crypto", "pcm", "other"} {
		sum += rows[c].MeanNS
	}
	if d := sum - rows["total"].MeanNS; d > 1e-9 || d < -1e-9 {
		t.Errorf("component means sum %v != total mean %v", sum, rows["total"].MeanNS)
	}

	// Kind filter.
	readsOnly := r.Attribution("read")
	if readsOnly.Sampled != 2 {
		t.Errorf("read filter sampled %d", readsOnly.Sampled)
	}

	// Table rendering carries the rows and the residual note.
	tbl := att.Table("Attribution").String()
	for _, want := range []string{"queue", "bus", "crypto", "pcm", "other", "total", "residual"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestRequestEnvelope checks the envelope span pushed by EndRequest: it
// carries the per-category breakdown in ns and the request tag.
func TestRequestEnvelope(t *testing.T) {
	r := New(100)
	id := r.BeginRequest("read", 0xabc0, 10)
	r.Span(1, "bank", CatPCM, "row-hit", 20, 80)
	r.EndRequest(id, 110)

	spans := r.Spans()
	env := spans[len(spans)-1]
	if env.TID != "requests" || env.Name != "read" || env.Begin != 10 || env.End != 110 {
		t.Fatalf("envelope = %+v", env)
	}
	args := map[string]any{}
	for _, a := range env.Args {
		args[a.Key] = a.Value()
	}
	if args["addr"] != "0xabc0" {
		t.Errorf("addr arg = %v", args["addr"])
	}
	if args["pcm_ns"] != 0.06 {
		t.Errorf("pcm_ns = %v, want 0.06", args["pcm_ns"])
	}
	if args["other_ns"] != 0.04 {
		t.Errorf("other_ns = %v, want 0.04", args["other_ns"])
	}
	// Component spans recorded inside the scope carry the request ID.
	if spans[0].Req != id {
		t.Errorf("component span req = %d, want %d", spans[0].Req, id)
	}
	// Spans outside any scope carry req 0.
	r.Span(0, "t", CatOther, "outside", 200, 210)
	spans = r.Spans()
	if spans[len(spans)-1].Req != 0 {
		t.Error("span outside request scope tagged with a request")
	}
}

// TestChromeExportRoundTrip validates the export contract end to end:
// parseable JSON, ns display unit, named tracks, complete X events with
// durations, per-track monotonic timestamps, dropped count surfaced.
func TestChromeExportRoundTrip(t *testing.T) {
	r := New(3) // force eviction so otherData reports drops
	for i := 0; i < 5; i++ {
		id := r.BeginRequest("read", uint64(i)*64, sim.Time(i*100))
		r.Span(1, "req-link", CatBus, "cmd", sim.Time(i*100), sim.Time(i*100+13))
		r.Instant(1, "ctl", "decode", sim.Time(i*100+13))
		r.EndRequest(id, sim.Time(i*100+90))
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var f struct {
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Ph    string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   *float64       `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export does not round-trip through encoding/json: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if f.OtherData["droppedSpans"].(float64) != float64(r.Dropped()) {
		t.Errorf("droppedSpans = %v, want %d", f.OtherData["droppedSpans"], r.Dropped())
	}

	lastTS := map[string]float64{}
	var xEvents, metadata int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			metadata++
			continue
		case "X":
			xEvents++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("X event %q without non-negative dur", ev.Name)
			}
		case "i":
			if ev.Scope != "t" {
				t.Errorf("instant %q scope = %q", ev.Name, ev.Scope)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		key := fmt.Sprintf("%d/%d", ev.PID, ev.TID)
		if ev.TS < lastTS[key] {
			t.Errorf("track %s ts went backwards: %v after %v", key, ev.TS, lastTS[key])
		}
		lastTS[key] = ev.TS
	}
	if xEvents == 0 || metadata == 0 {
		t.Fatalf("export missing events: %d X, %d M", xEvents, metadata)
	}
}

// TestSampler checks boundary accounting: one row per crossed interval,
// snapshot values frozen at crossing time, CSV shape.
func TestSampler(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Scope("x").Counter("hits")
	s := NewSampler(reg, 10*sim.Microsecond)

	ctr.Inc()
	s.Advance(5 * sim.Microsecond) // before first boundary: nothing
	if s.Rows() != 0 {
		t.Fatalf("rows after 5us = %d", s.Rows())
	}
	s.Advance(10 * sim.Microsecond) // boundary 1
	ctr.Inc()
	s.Advance(47 * sim.Microsecond) // boundaries 2,3,4
	if s.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", s.Rows())
	}
	s.Advance(47 * sim.Microsecond) // no new boundary
	if s.Rows() != 4 {
		t.Fatalf("re-advance grew rows to %d", s.Rows())
	}

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "time_us,x.hits" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "10.000,1" {
		t.Errorf("row 1 = %q (counter frozen at crossing)", lines[1])
	}
	if lines[4] != "40.000,2" {
		t.Errorf("row 4 = %q", lines[4])
	}

	var nilS *Sampler
	nilS.Advance(100) // no-op, no panic
	if nilS.Rows() != 0 || nilS.Dropped() != 0 || nilS.Interval() != 0 {
		t.Error("nil sampler has state")
	}
	if err := nilS.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	defer func() {
		if recover() == nil {
			t.Error("NewSampler(0) did not panic")
		}
	}()
	NewSampler(reg, 0)
}

// TestSamplerCap drives past the retention cap and checks drops are
// counted, never silent.
func TestSamplerCap(t *testing.T) {
	s := NewSampler(nil, 1) // 1 ps interval, nil registry (empty snapshots)
	s.Advance(sim.Time(DefaultSampleLimit + 7))
	if s.Rows() != DefaultSampleLimit {
		t.Fatalf("rows = %d, want cap %d", s.Rows(), DefaultSampleLimit)
	}
	if s.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", s.Dropped())
	}
}

// TestHex64 pins the envelope's addr format to fmt's %#x, zero included.
func TestHex64(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xabc0, 1<<63 + 5, ^uint64(0)} {
		if got, want := hex64(v), fmt.Sprintf("%#x", v); got != want {
			t.Errorf("hex64(%d) = %q, want %q", v, got, want)
		}
	}
}

// recordObservedMix records requests shaped like a traced 2-channel
// obfusmem-auth run: per request, 15 component spans on the tracks, with
// the names and the arg kinds and magnitudes that run records, then the
// envelope, so 27/20/20/27/7% of spans carry 0/1/2/4/6 args (the run
// measures 28/20/20/26/6%). Requests start about 500 ns apart from at.
func recordObservedMix(r *Recorder, rng *xrand.Rand, at sim.Time, requests int) sim.Time {
	ns := func(n uint64) sim.Time { return sim.Time(rng.Uint64n(n*1000) + 1) }
	for i := range requests {
		ch := int(rng.Uint64n(2))
		pid, other := ChannelPID(ch), ChannelPID(1-ch)
		seq := uint64(8 * i)
		id := r.BeginRequest(names.ReqRead, rng.Uint64n(1<<33)&^63, at)
		t := at + ns(20)
		r.Span(PIDCPU, "frontend", CatQueue, names.SpanFrontendWait, at, t)
		r.Span(PIDCPU, "frontend", CatOther, names.SpanFrontend, t, t+2000)
		t += 2000
		r.Span(pid, "proc-aes", CatCrypto, names.SpanEncryptPads, t, t+ns(15), Int("pads", 2))
		r.Span(pid, "proc-md5", CatCrypto, names.SpanMACRequest, t, t+ns(40), Nanos("slack_ns", ns(30)))
		t += ns(40)
		for j, p := range []int{pid, other} {
			r.Span(p, "req-link", CatBus, "cmd+mac", t, t+ns(10), Int("bytes", 24), Str("type", "read"),
				Bool("dummy", j == 1), Uint("seq", seq+uint64(j)))
			r.Span(p, "mem-aes", CatCrypto, names.SpanMemDecode, t+ns(10), t+ns(25),
				Uint("ctr", seq/2+uint64(j)), Bool("dummy", j == 1))
		}
		t += ns(30)
		row := int64(rng.Uint64n(1 << 17))
		r.Instant(pid, "ctl", names.SpanDecode, t, Int("rank", 0), Int("bank", int64(rng.Uint64n(8))),
			Int("row", row), Bool("write", false))
		r.Span(pid, "bank 3", CatQueue, names.SpanBankWait, t, t+ns(100))
		t += ns(100)
		r.Span(pid, "bank 3", CatPCM, names.SpanRowMiss, t, t+ns(120), Int("row", row), Bool("write", false))
		t += ns(120)
		r.Span(pid, "mem-aes", CatCrypto, names.SpanReplyEncrypt, t, t+ns(15), Bool("dummy", false))
		t += ns(15)
		r.Span(pid, "resp-link", CatBus, "data+mac", t, t+ns(30), Int("bytes", 72), Str("type", "read"),
			Bool("dummy", false), Uint("seq", seq+2))
		t += ns(30)
		r.Span(pid, "proc-aes", CatCrypto, names.SpanReplyDecode, t, t+ns(10))
		r.EndRequest(id, t+ns(10))
		at += 400*sim.Nanosecond + ns(200)
	}
	return at
}

// TestSpanLogBytesPerSpan is the span log's memory guard: on the observed
// mix, the chunks a recorder holds cost at most 32 bytes per retained span
// while the log fills and after it has wrapped (22 and 25 here, the
// chunks' slack included).
func TestSpanLogBytesPerSpan(t *testing.T) {
	const limit = 40_000
	r := New(limit)
	rng := xrand.New(5)
	check := func(when string) {
		// Every chunk the log holds, spares included, is what its spans cost.
		held := (len(r.log.chunks) + len(r.log.spare)) * chunkBytes
		if per := float64(held) / float64(r.Len()); per > 32 {
			t.Errorf("%s: %d chunk bytes for %d spans, %.1f bytes per span, want at most 32",
				when, held, r.Len(), per)
		}
	}
	at := recordObservedMix(r, rng, 0, 2000)
	if r.Dropped() != 0 {
		t.Fatal("the filling log dropped spans")
	}
	check("filling")
	recordObservedMix(r, rng, at, 4000)
	if r.Dropped() == 0 || r.Len() != limit {
		t.Fatalf("log of %d spans after 6000 requests: %d retained, %d dropped; want it wrapped", limit, r.Len(), r.Dropped())
	}
	check("wrapped")
}

// TestAttribBytesPerSample checks that a long traced run's attribution
// samples allocate at most 56 bytes each: the 48-byte breakdown and its
// read/write kind beside it in chunked logs, not a 16-byte kind string and
// the growth copies of two slices grown by append.
func TestAttribBytesPerSample(t *testing.T) {
	const samples = 100_000
	a := newAttribState(samples)
	kinds := [...]string{string(names.ReqRead), string(names.ReqWrite)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range samples {
		a.add(kinds[i%3/2], Breakdown{TotalPS: int64(i), Parts: [numCategories]int64{CatOther: int64(i)}})
	}
	runtime.ReadMemStats(&after)
	if a.reads+a.writes != samples || a.droppedSmp != 0 {
		t.Fatalf("%d reads and %d writes retained with %d dropped, want %d and none dropped", a.reads, a.writes, a.droppedSmp, samples)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / samples
	t.Logf("%.1f bytes allocated per attribution sample", per)
	if per > 56 {
		t.Errorf("attribution allocates %.1f bytes per sample, want at most 56", per)
	}
}
