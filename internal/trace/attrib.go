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
// component spans (r.cur, clipped in place): it cuts the window at every
// span boundary and gives each elementary interval to the highest-priority
// category covering it. r.cuts and r.best are its reused scratch.
func (r *Recorder) breakdown(begin, end sim.Time) Breakdown {
	bd := Breakdown{TotalPS: int64(end - begin)}
	if end <= begin {
		return bd
	}
	ivs := r.cur[:0]
	cuts := append(r.cuts[:0], begin, end)
	for _, v := range r.cur {
		v.b, v.e = max(v.b, begin), min(v.e, end)
		if v.e > v.b {
			ivs = append(ivs, v)
			cuts = append(cuts, v.b, v.e)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	r.cuts = cuts
	// best[k] is the category of [cuts[k], cuts[k+1]); categories are
	// declared in priority order, and an uncovered interval is "other".
	best := r.best[:0]
	for range len(cuts) - 1 {
		best = append(best, CatOther)
	}
	r.best = best
	for _, v := range ivs {
		k, _ := slices.BinarySearch(cuts, v.b)
		for ; cuts[k] < v.e; k++ {
			best[k] = max(best[k], v.cat)
		}
	}
	for k, c := range best {
		bd.Parts[c] += int64(cuts[k+1] - cuts[k])
	}
	return bd
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
