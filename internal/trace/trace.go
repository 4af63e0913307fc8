// Package trace is the simulator's request-lifecycle tracing layer: a
// bounded span recorder keyed by request ID, threaded through every timed
// component (CPU issue, cache hit/miss, memory controller, bus legs,
// ObfusMem crypto, PCM banks).
//
// It follows the same off-by-default discipline as internal/metrics: a nil
// *Recorder is the disabled recorder, every method on it is a single-branch
// no-op, and components keep permanent recorder fields they call
// unconditionally — except where building span arguments would allocate, in
// which case hot paths guard with a nil check first.
//
// Three consumers sit on top of the recorder:
//
//   - Chrome trace-event JSON export (WriteChromeTrace), loadable in
//     Perfetto or chrome://tracing, with pid = channel and tid = engine or
//     bank, so a run can be inspected as a bus-transaction timeline.
//   - A per-request latency-attribution table (Attribution): each finished
//     request's [issue, done] window is partitioned exactly — to the
//     picosecond — over queue/bus/crypto/pcm/other using the component
//     spans recorded while it was in flight.
//   - A time-series sampler (Sampler, sampler.go) that snapshots a metrics
//     registry on fixed sim-time boundaries for CSV plotting.
//
// Retention is a ring buffer of fixed-size chunks allocated on demand: once
// the configured span limit is reached the oldest spans are evicted and
// counted in Dropped(). Truncation is never silent — exporters embed the
// dropped count and callers are expected to surface it.
package trace

import (
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
)

// Category classifies a span for latency attribution.
type Category int8

// Attribution categories. Priority for overlapping spans is resolved in
// favour of service over waiting: PCM > Bus > Crypto > Queue > Other.
const (
	CatOther Category = iota
	CatQueue
	CatCrypto
	CatBus
	CatPCM
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatQueue:
		return "queue"
	case CatBus:
		return "bus"
	case CatCrypto:
		return "crypto"
	case CatPCM:
		return "pcm"
	default:
		return "other"
	}
}

// PIDCPU is the Chrome-trace process ID used for processor-side activity
// (request envelopes, the shared ObfusMem front end, cache levels).
const PIDCPU = 0

// ChannelPID maps a memory channel index to its Chrome-trace process ID.
func ChannelPID(ch int) int { return ch + 1 }

// Arg is one key/value pair attached to a span. Values should be small and
// JSON-encodable (strings, integers, floats, bools).
type Arg struct {
	Key string
	Val any
}

// A is a convenience constructor for Arg.
func A(key string, val any) Arg { return Arg{Key: key, Val: val} }

// Phase distinguishes span shapes in the Chrome export.
type Phase byte

// Span phases.
const (
	PhaseSpan    Phase = 'X' // complete event with duration
	PhaseInstant Phase = 'i' // point event
)

// Span is one recorded interval (or instant) of component activity.
type Span struct {
	Req   uint64 // enclosing request ID; 0 when outside any request
	PID   int    // Chrome-trace process: PIDCPU or ChannelPID(ch)
	TID   string // track within the process: engine, link, or bank name
	Cat   Category
	Name  string
	Phase Phase
	Begin sim.Time
	End   sim.Time
	Args  []Arg
}

// DefaultLimit is the default ring-buffer capacity (retained spans).
const DefaultLimit = 100_000

// chunkSpans is the ring's allocation unit. Chunks are allocated as the
// ring fills and never regrown, so retention costs no copying and a short
// run never pays for the whole limit.
const chunkSpans = 4096

// Recorder collects spans into a bounded ring buffer and accumulates
// per-request latency breakdowns. A Recorder is single-threaded, matching
// the synchronous call graph of one simulated machine; concurrent systems
// must each use their own Recorder.
//
// The nil Recorder is the disabled recorder: every method is a no-op.
type Recorder struct {
	limit   int
	chunks  [][]Span // ring storage: span i lives at chunks[i/chunkSpans][i%chunkSpans]
	n       int      // retained spans
	next    int      // ring index of the oldest span once full (0 until then)
	dropped uint64

	// Current-request scope. The simulation services each request with a
	// synchronous call tree, so component spans recorded between
	// BeginRequest and EndRequest belong to that request.
	reqSeq   uint64
	curReq   uint64
	curKind  string
	curAddr  uint64
	curBegin sim.Time
	cur      []Span // component spans of the open request (scratch)

	attrib attribState
}

// New returns an enabled recorder retaining at most limit spans
// (DefaultLimit when limit <= 0).
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{limit: limit, attrib: newAttribState(limit)}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// slot returns the span at ring index i.
func (r *Recorder) slot(i int) *Span { return &r.chunks[i/chunkSpans][i%chunkSpans] }

// at returns the i-th oldest retained span.
func (r *Recorder) at(i int) *Span {
	i += r.next
	if i >= r.limit {
		i -= r.limit
	}
	return r.slot(i)
}

// push appends a span to the ring, evicting the oldest when full.
func (r *Recorder) push(s Span) {
	if r.n < r.limit {
		if r.n == len(r.chunks)*chunkSpans {
			r.chunks = append(r.chunks, make([]Span, min(chunkSpans, r.limit-r.n)))
		}
		*r.slot(r.n) = s
		r.n++
		return
	}
	// Ring is full: overwrite the oldest retained span.
	*r.slot(r.next) = s
	r.next++
	if r.next == r.limit {
		r.next = 0
	}
	r.dropped++
}

// Span records one component interval. No-op on a nil recorder; hot paths
// that build Args should still guard with Enabled() (or a direct nil check)
// to avoid the variadic allocation when tracing is off.
func (r *Recorder) Span(pid int, tid string, cat Category, name names.Name, begin, end sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	if end < begin {
		end = begin
	}
	s := Span{Req: r.curReq, PID: pid, TID: tid, Cat: cat, Name: string(name),
		Phase: PhaseSpan, Begin: begin, End: end, Args: args}
	r.push(s)
	if r.curReq != 0 {
		r.cur = append(r.cur, s)
	}
}

// Instant records a point event (decode milestones, dummy drops, tamper
// detections). Instants never contribute to latency attribution.
func (r *Recorder) Instant(pid int, tid string, name names.Name, at sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	r.push(Span{Req: r.curReq, PID: pid, TID: tid, Cat: CatOther, Name: string(name),
		Phase: PhaseInstant, Begin: at, End: at, Args: args})
}

// BeginRequest opens a request scope at its issue time and returns the
// request ID (0 on a nil recorder). Component spans recorded until the
// matching EndRequest attach to this request. Requests do not nest: the
// core model is the only caller.
func (r *Recorder) BeginRequest(kind names.Name, addr uint64, at sim.Time) uint64 {
	if r == nil {
		return 0
	}
	r.reqSeq++
	r.curReq = r.reqSeq
	r.curKind = string(kind)
	r.curAddr = addr
	r.curBegin = at
	r.cur = r.cur[:0]
	return r.curReq
}

// EndRequest closes the request scope: it records the request envelope
// span, computes the exact per-category latency breakdown from the
// component spans observed in flight, and folds it into the attribution
// accumulator.
func (r *Recorder) EndRequest(id uint64, end sim.Time) {
	if r == nil || id == 0 || id != r.curReq {
		return
	}
	if end < r.curBegin {
		end = r.curBegin
	}
	bd := breakdown(r.curBegin, end, r.cur)
	r.attrib.add(r.curKind, bd)
	// The envelope is pushed after its components so chronological ring
	// eviction drops components before their envelope.
	r.push(Span{Req: id, PID: PIDCPU, TID: "requests", Cat: CatOther,
		Name: r.curKind, Phase: PhaseSpan, Begin: r.curBegin, End: end,
		Args: []Arg{
			{Key: "addr", Val: hex64(r.curAddr)},
			{Key: "queue_ns", Val: psToNS(bd.Parts[CatQueue])},
			{Key: "bus_ns", Val: psToNS(bd.Parts[CatBus])},
			{Key: "crypto_ns", Val: psToNS(bd.Parts[CatCrypto])},
			{Key: "pcm_ns", Val: psToNS(bd.Parts[CatPCM])},
			{Key: "other_ns", Val: psToNS(bd.Parts[CatOther])},
		}})
	r.curReq = 0
	r.cur = r.cur[:0]
}

// Spans returns the retained spans, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, r.n)
	for i := range out {
		out[i] = *r.at(i)
	}
	return out
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns the number of spans evicted from the ring buffer.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Limit returns the ring-buffer capacity.
func (r *Recorder) Limit() int {
	if r == nil {
		return 0
	}
	return r.limit
}

func psToNS(ps int64) float64 { return float64(ps) / 1000.0 }
