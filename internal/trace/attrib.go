package trace

import (
	"slices"
	"strconv"

	"obfusmem/internal/chunklog"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
)

// Latency attribution partitions each request's end-to-end window over the
// span categories. The partition is exact by construction: every
// picosecond of [issue, done] is assigned to exactly one category (the
// highest-priority category whose spans cover it, or "other" when none
// do), so the per-category parts sum to the end-to-end latency with zero
// residual. This is what lets the attribution table make the paper's
// Section 5 decomposition arguments (MAC overlap, dummy piggybacking)
// inspectable per request instead of only in aggregate.

// Breakdown is one request's exact latency partition, in picoseconds.
type Breakdown struct {
	TotalPS int64
	Parts   [numCategories]int64
}

// ResidualPS returns TotalPS minus the sum of parts (always 0 by
// construction; kept as a checkable invariant).
func (b Breakdown) ResidualPS() int64 {
	s := b.TotalPS
	for _, p := range b.Parts {
		s -= p
	}
	return s
}

// interval is one component span of the open request.
type interval struct {
	b, e sim.Time
	cat  Category
}

// breakdown computes the partition of [begin, end] over the open request's
// component spans (r.cur): it clips each span to the window and sweeps the
// window's edges in time order, giving each stretch between edges to the
// highest-priority category open over it. Only categories above CatOther
// can claim time, so "other" spans add no edges. The begin edges and the
// end edges are sorted apart, each by insertion: components are recorded
// about in time order, so each list is nearly sorted, where the two mixed
// are not. r.ups and r.downs are its reused scratch.
func (r *Recorder) breakdown(begin, end sim.Time) Breakdown {
	bd := Breakdown{TotalPS: int64(end - begin)}
	if end <= begin {
		return bd
	}
	ups, downs := r.ups[:0], r.downs[:0]
	for _, v := range r.cur {
		b, e := max(v.b, begin), min(v.e, end)
		if e > b && v.cat > CatOther {
			ups = append(ups, edge{b, v.cat})
			downs = append(downs, edge{e, v.cat})
		}
	}
	r.ups, r.downs = ups, downs
	sortEdges(ups)
	sortEdges(downs)
	// open counts each category's spans open at the sweep point, and top
	// is the highest open category, "other" when none is.
	var open [numCategories]int32
	at, top := begin, CatOther
	for i, j := 0, 0; j < len(downs); {
		if i < len(ups) && ups[i].t <= downs[j].t {
			x := ups[i]
			i++
			bd.Parts[top] += int64(x.t - at)
			at = x.t
			open[x.cat]++
			top = max(top, x.cat)
			continue
		}
		x := downs[j]
		j++
		bd.Parts[top] += int64(x.t - at)
		at = x.t
		open[x.cat]--
		for top > CatOther && open[top] == 0 {
			top--
		}
	}
	bd.Parts[top] += int64(end - at)
	return bd
}

// edge is a clipped span's begin or end in breakdown's sweep.
type edge struct {
	t   sim.Time
	cat Category
}

// sortEdges sorts edges by time, by insertion.
func sortEdges(es []edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].t < es[j-1].t; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// attribState accumulates per-request breakdowns for the report. Retention
// is capped (same spirit as the span log); overflowing samples are counted
// but not retained, so percentiles cover the first `limit` requests while
// counts and the residual invariant cover every request. Samples sit in
// chunked logs, 49 bytes each: the 48-byte breakdown and, beside it, whether
// the request was a write.
type attribState struct {
	limit         int
	samples       chunklog.Log[Breakdown]
	isWrite       chunklog.Log[bool] // parallel to samples
	sampledWrites int
	reads, writes uint64
	droppedSmp    uint64
	maxResidual   int64
}

func newAttribState(limit int) attribState {
	return attribState{limit: limit}
}

func (a *attribState) add(kind string, bd Breakdown) {
	write := kind == string(names.ReqWrite)
	if write {
		a.writes++
	} else {
		a.reads++
	}
	if res := bd.ResidualPS(); res > a.maxResidual || -res > a.maxResidual {
		if res < 0 {
			res = -res
		}
		a.maxResidual = res
	}
	if a.samples.Len() >= a.limit {
		a.droppedSmp++
		return
	}
	a.samples.Append(bd)
	a.isWrite.Append(write)
	if write {
		a.sampledWrites++
	}
}

// AttributionRow is one component's latency statistics in nanoseconds.
type AttributionRow struct {
	Component string  `json:"component"`
	MeanNS    float64 `json:"mean_ns"`
	P50NS     float64 `json:"p50_ns"`
	P95NS     float64 `json:"p95_ns"`
	P99NS     float64 `json:"p99_ns"`
}

// Attribution is the per-request latency-attribution report.
type Attribution struct {
	Requests       uint64 `json:"requests"`
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	Sampled        int    `json:"sampled"`
	DroppedSamples uint64 `json:"dropped_samples"`
	// MaxResidualPS is the largest |total - sum(parts)| over every request
	// (0 by construction of the sweep partition).
	MaxResidualPS int64            `json:"max_residual_ps"`
	Rows          []AttributionRow `json:"rows"`
}

// attribOrder fixes the report row order.
var attribOrder = []Category{CatQueue, CatBus, CatCrypto, CatPCM, CatOther}

// Attribution builds the report over all finished requests. kindFilter
// selects "read", "write", or "" for all; a request of any kind but "write"
// counts as a read, and any other filter selects no sample.
func (r *Recorder) Attribution(kindFilter string) Attribution {
	if r == nil {
		return Attribution{}
	}
	a := &r.attrib
	rep := Attribution{
		Requests:       a.reads + a.writes,
		Reads:          a.reads,
		Writes:         a.writes,
		DroppedSamples: a.droppedSmp,
		MaxResidualPS:  a.maxResidual,
	}
	// n samples pass the filter; the report's columns share one allocation.
	n, wantWrite := a.samples.Len(), kindFilter == string(names.ReqWrite)
	switch {
	case kindFilter == "":
	case wantWrite:
		n = a.sampledWrites
	case kindFilter == string(names.ReqRead):
		n -= a.sampledWrites
	default:
		n = 0
	}
	cols := make([]float64, int(numCategories+1)*n)
	perCat := make([][]float64, numCategories)
	for c := range perCat {
		perCat[c] = cols[c*n : c*n : (c+1)*n]
	}
	totals := cols[len(cols)-n : len(cols)-n]
	for k := 0; n > 0 && k < a.samples.Chunks(); k++ {
		isWrite := a.isWrite.Chunk(k)
		for i, bd := range a.samples.Chunk(k) {
			if kindFilter != "" && isWrite[i] != wantWrite {
				continue
			}
			totals = append(totals, psToNS(bd.TotalPS))
			for c := Category(0); c < numCategories; c++ {
				perCat[c] = append(perCat[c], psToNS(bd.Parts[c]))
			}
		}
	}
	rep.Sampled = len(totals)
	// Each column is sorted in place once for its percentiles, after its
	// mean is summed in sample order.
	row := func(name string, xs []float64) AttributionRow {
		mean := stats.Mean(xs)
		slices.Sort(xs)
		return AttributionRow{
			Component: name,
			MeanNS:    mean,
			P50NS:     stats.SortedPercentile(xs, 50),
			P95NS:     stats.SortedPercentile(xs, 95),
			P99NS:     stats.SortedPercentile(xs, 99),
		}
	}
	rep.Rows = make([]AttributionRow, 0, len(attribOrder)+1)
	for _, c := range attribOrder {
		rep.Rows = append(rep.Rows, row(c.String(), perCat[c]))
	}
	rep.Rows = append(rep.Rows, row("total", totals))
	return rep
}

// Table renders the report as an aligned stats.Table for the experiment
// harness.
func (a Attribution) Table(title string) *stats.Table {
	t := stats.NewTable(title, "component", "mean-ns", "p50-ns", "p95-ns", "p99-ns")
	for _, r := range a.Rows {
		t.AddRowf(2, r.Component, r.MeanNS, r.P50NS, r.P95NS, r.P99NS)
	}
	t.AddNote("%d requests (%d reads, %d writes); breakdown sampled over %d",
		a.Requests, a.Reads, a.Writes, a.Sampled)
	if a.DroppedSamples > 0 {
		t.AddNote("%d request samples beyond the retention cap were dropped from percentiles", a.DroppedSamples)
	}
	t.AddNote("max per-request residual |total - sum(parts)| = %d ps", a.MaxResidualPS)
	return t
}

// hex64 formats v exactly as fmt's %#x does, "0x0" for zero included.
func hex64(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }
