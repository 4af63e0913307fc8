// Package trace is the simulator's request-lifecycle tracing layer: a
// bounded span recorder keyed by request ID, threaded through every timed
// component (CPU issue, cache hit/miss, memory controller, bus legs,
// ObfusMem crypto, PCM banks).
//
// It follows the same off-by-default discipline as internal/metrics: a nil
// *Recorder is the disabled recorder, every method on it is a single-branch
// no-op, and components keep permanent recorder fields. Span arguments are
// typed values (Int, Uint, Bool, Float, Str, Nanos) that box nothing, and the
// recorder encodes them into its own storage, so once the log's chunks exist
// an enabled recorder records spans without allocating. Call sites that
// build arguments still guard with a nil check, which keeps an untraced run
// from building them at all.
//
// Three consumers sit on top of the recorder:
//
//   - Chrome trace-event JSON export (WriteChromeTrace), loadable in
//     Perfetto or chrome://tracing, with pid = channel and tid = engine or
//     bank, so a run can be inspected as a bus-transaction timeline. It
//     streams the log in begin-time order without sorting it: the log is
//     nearly in time order, and only the spans it has out of place are
//     held back.
//   - A per-request latency-attribution table (Attribution): each finished
//     request's [issue, done] window is partitioned exactly — to the
//     picosecond — over queue/bus/crypto/pcm/other using the component
//     spans recorded while it was in flight.
//   - A time-series sampler (Sampler, sampler.go) that snapshots a metrics
//     registry on fixed sim-time boundaries for CSV plotting.
//
// Retention is a span log (spanlog.go): each span is encoded on its own, in
// varints, into byte chunks allocated on demand, about 20 bytes a span on a
// traced ObfusMem run. Once the configured span limit is reached the oldest
// spans are evicted, a skip over their bytes, and counted in Dropped(); a
// chunk they empty is recycled. Truncation is never silent — exporters embed
// the dropped count and callers are expected to surface it. The log holds no
// Go pointers: names, TIDs, arg keys and string values are ids into
// recorder-local intern tables that keep each string's JSON encoding, so the
// garbage collector never scans the chunks and the export copies pre-encoded
// bytes. A small cache keyed by a string's address sits in front of each
// table's map, since components pass the same constants span after span. The export and Spans decode the log front to back. The intern
// tables never evict, so their memory is bounded by the distinct strings a
// run records, not by the span limit: a string value unique to one span (a
// campaign cell's key) stays interned after the log drops its span. String
// values have a table of their own, so the export's per-name tables stay
// sized by the run's distinct names, TIDs and keys.
package trace

import (
	"math"

	"obfusmem/internal/names"
	"obfusmem/internal/sim"
)

// Category classifies a span for latency attribution.
type Category int8

// Attribution categories, declared in ascending priority: overlapping spans
// resolve in favour of service over waiting, PCM > Bus > Crypto > Queue >
// Other.
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

// Arg is one typed key/value pair attached to a span, built by Int, Uint,
// Bool, Float, Str or Nanos. The recorder copies it into the span's
// encoding, so a caller may reuse its args slice.
type Arg struct {
	Key  string
	kind argKind
	num  uint64 // the value for every kind but argStr: int64 bits, float64 bits, 0/1
	str  string // the argStr value
}

type argKind uint8

const (
	argInt argKind = iota
	argUint
	argBool
	argFloat
	argStr
	argNS  // picoseconds, exported in nanoseconds
	argHex // the request envelope's addr, exported as fmt's %#x string
)

// Int is an integer arg.
func Int(key string, v int64) Arg { return Arg{Key: key, kind: argInt, num: uint64(v)} }

// Uint is an unsigned integer arg.
func Uint(key string, v uint64) Arg { return Arg{Key: key, kind: argUint, num: v} }

// Bool is a boolean arg.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: argBool}
	if v {
		a.num = 1
	}
	return a
}

// Float is a floating-point arg. A NaN or infinite value makes
// WriteChromeTrace fail, as it has no JSON encoding.
func Float(key string, v float64) Arg { return Arg{Key: key, kind: argFloat, num: math.Float64bits(v)} }

// Str is a string arg.
func Str(key, v string) Arg { return Arg{Key: key, kind: argStr, str: v} }

// Nanos is a duration arg, exported as d.Float64Nanos().
func Nanos(key string, d sim.Time) Arg { return Arg{Key: key, kind: argNS, num: uint64(d)} }

// Value returns the arg's value as the export encodes it: an int64,
// uint64, bool, float64 (Float and Nanos) or string (Str, and the request
// envelope's "0x..." addr).
func (a Arg) Value() any {
	switch a.kind {
	case argInt:
		return int64(a.num)
	case argUint:
		return a.num
	case argBool:
		return a.num != 0
	case argFloat:
		return math.Float64frombits(a.num)
	case argStr:
		return a.str
	case argNS:
		return psToNS(int64(a.num))
	default:
		return hex64(a.num)
	}
}

// Phase distinguishes span shapes in the Chrome export.
type Phase byte

// Span phases.
const (
	PhaseSpan    Phase = 'X' // complete event with duration
	PhaseInstant Phase = 'i' // point event
)

// Span is one recorded interval (or instant) of component activity, as
// Spans materialises it from the recorder's span log.
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

// maxArgs is the most args one span carries; the request envelope uses
// all of them.
const maxArgs = 6

// DefaultLimit is the default span limit (retained spans).
const DefaultLimit = 100_000

// Recorder collects spans into a bounded span log and accumulates
// per-request latency breakdowns. A Recorder is single-threaded, matching
// the synchronous call graph of one simulated machine; concurrent systems
// must each use their own Recorder.
//
// The nil Recorder is the disabled recorder: every method is a no-op.
type Recorder struct {
	limit   int
	log     spanLog
	n       int // retained spans
	dropped uint64
	syms    *symtab // names, TIDs and arg keys; nil until the first span
	strs    *symtab // string arg values; nil until the first span

	// Current-request scope. The simulation services each request with a
	// synchronous call tree, so component spans recorded between
	// BeginRequest and EndRequest belong to that request.
	reqSeq   uint64
	curReq   uint64
	curKind  string
	curAddr  uint64
	curBegin sim.Time
	cur      []interval // component spans of the open request (scratch)
	ups      []edge     // breakdown scratch
	downs    []edge     // breakdown scratch

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

// tables returns the name and string-value intern tables, creating them
// on first use, so a recorder that records nothing allocates neither.
func (r *Recorder) tables() (syms, strs *symtab) {
	if r.syms == nil {
		r.syms, r.strs = newSymtab(presymEntries), newSymtab(nil)
	}
	return r.syms, r.strs
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// open evicts the oldest span when the log holds limit spans and returns
// the log's tail to append the encoding of one span that begins at begin
// to, which close then stores.
func (r *Recorder) open(begin sim.Time) []byte {
	if r.n == r.limit {
		r.log.drop()
		r.dropped++
	} else {
		r.n++
	}
	return r.log.open(begin)
}

// push records one span of the current request scope, copying its args.
func (r *Recorder) push(pid int, tid string, cat Category, name string, ph Phase, begin, end sim.Time, args []Arg) {
	if len(args) > maxArgs {
		panic("trace: a span carries at most 6 args")
	}
	t, strs := r.tables()
	b := appendHead(r.open(begin), r.curReq, begin, end, int32(pid), t.id(tid), t.id(name), cat, ph, len(args))
	for _, a := range args {
		v := a.num
		if a.kind == argStr {
			v = uint64(strs.id(a.str))
		}
		b = appendArg(b, t.id(a.Key), a.kind, v)
	}
	r.log.close(b)
}

// Span records one component interval. No-op on a nil recorder. Once the
// log's chunks exist and its strings have been seen, it allocates nothing.
func (r *Recorder) Span(pid int, tid string, cat Category, name names.Name, begin, end sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	if end < begin {
		end = begin
	}
	r.push(pid, tid, cat, string(name), PhaseSpan, begin, end, args)
	if r.curReq != 0 {
		r.cur = append(r.cur, interval{begin, end, cat})
	}
}

// Instant records a point event (decode milestones, dummy drops, tamper
// detections). Instants never contribute to latency attribution.
func (r *Recorder) Instant(pid int, tid string, name names.Name, at sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	r.push(pid, tid, CatOther, string(name), PhaseInstant, at, at, args)
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
	bd := r.breakdown(r.curBegin, end)
	r.attrib.add(r.curKind, bd)
	// The envelope is pushed after its components so oldest-first
	// eviction drops components before their envelope.
	syms, _ := r.tables()
	b := appendHead(r.open(r.curBegin), id, r.curBegin, end, PIDCPU, symRequests, syms.id(r.curKind), CatOther, PhaseSpan, maxArgs)
	b = appendArg(b, symAddr, argHex, r.curAddr)
	for _, p := range envelopeParts {
		b = appendArg(b, p.key, argNS, uint64(bd.Parts[p.cat]))
	}
	r.log.close(b)
	r.curReq = 0
	r.cur = r.cur[:0]
}

// envelopeParts are the request envelope's breakdown args, in arg order.
var envelopeParts = [...]struct {
	key sym
	cat Category
}{{symQueueNS, CatQueue}, {symBusNS, CatBus}, {symCryptoNS, CatCrypto}, {symPCMNS, CatPCM}, {symOtherNS, CatOther}}

// Spans returns the retained spans, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.n)
	var s record
	for k, c := range r.log.chunks {
		for off := r.log.start(k); off < len(c.b); {
			var b []byte
			b, off = span(c.b, off)
			s.decode(b)
			sp := Span{Req: s.req, PID: int(s.pid), TID: r.syms.str(s.tid), Cat: s.cat,
				Name: r.syms.str(s.name), Phase: s.phase, Begin: s.begin, End: s.end}
			if s.nargs > 0 {
				sp.Args = make([]Arg, s.nargs)
			}
			for j := range sp.Args {
				a := Arg{Key: r.syms.str(s.keys[j]), kind: s.kinds[j], num: s.vals[j]}
				if a.kind == argStr {
					a.num, a.str = 0, r.strs.str(sym(s.vals[j]))
				}
				sp.Args[j] = a
			}
			out = append(out, sp)
		}
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

// Dropped returns the number of spans evicted from the span log.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Limit returns the span limit: the most spans the log retains.
func (r *Recorder) Limit() int {
	if r == nil {
		return 0
	}
	return r.limit
}

func psToNS(ps int64) float64 { return float64(ps) / 1000.0 }
