package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"obfusmem/internal/stats"
	"obfusmem/internal/system"
)

// options are the settings of one workload run.
type options struct {
	seed    uint64
	seconds int
	traced  bool
	out     string // directory for runs.jsonl and span dumps; "" writes nothing
	golden  string // directory to record golden digests into; "" checks instead
	// rounds and requests override the workload's scale (tests only).
	rounds   int
	requests int
}

// report is everything one workload run measured.
type report struct {
	w         *spec
	o         options
	rounds    int
	n         int
	attempted int
	failed    int
	correct   bool
	values    map[string]float64
	notes     []string
	cells     []cellResult // the timed cells, for -record-golden
	spans     []span
	dropped   int
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds cell verdicts into the report.
func (r *report) count(cells []cellResult) {
	for _, c := range cells {
		r.attempted++
		if c.failure != "" {
			r.failed++
			if r.failed <= 5 {
				r.note("FAILED %s: %s", c.cell.key(), c.failure)
			}
		}
	}
}

func newReport(w *spec, o options) *report {
	return &report{w: w, o: o, rounds: w.rounds(o), n: w.n(o), correct: true, values: map[string]float64{}}
}

// processStart approximates process start: package initialisation of main
// runs after the runtime and every imported package have initialised.
var processStart = time.Now()

func runWorkload(w *spec, o options) *report {
	if o.traced {
		return runTraced(w, o)
	}
	rep := newReport(w, o)
	setup := setupSeconds(w, rep.rounds, o.seed)
	warmUp(w, rep.n, o.seed)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep.values["bench.startup_s"] = time.Since(processStart).Seconds()
	cells, ph := runRounds(w, roundRange(0, rep.rounds), func(c cell) cellResult { return w.runCell(c, rep.n, o.seed) }, self)
	runtime.ReadMemStats(&after)

	if w.openLoop {
		verifyOpen(rep, cells)
	}
	verifyGolden(w, rep, cells)
	rep.cells = cells
	rep.count(cells)

	reqs := 0
	for _, c := range cells {
		reqs += c.requests
	}
	per := nsPerReq(cells)
	slow := slowdown(cells)
	var live []float64
	for _, c := range cells {
		live = append(live, c.liveHeap)
	}
	rep.values["bench.slowdown"] = slow
	rep.values["req_per_s"] = stats.Percentile(ph.rates, 100-w.floorPct()) * slow
	rep.values["ns_per_req"] = floorNSPerReq(cells, w.floorPct()) / slow
	rep.values["setup_s"] = setup / slow
	rep.values["wall_req_per_s"] = ratio(float64(reqs), float64(ph.wallNS)/1e9)
	rep.values["ns_per_req_p50"] = stats.Percentile(per, 50)
	rep.values["ns_per_req_p90"] = stats.Percentile(per, 90)
	rep.values["heap_live_mb"] = median(live) / (1 << 20)
	rep.values["max_rss_mb"] = maxRSSMiB()
	rep.values["alloc_bytes_per_req"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(reqs))
	rep.values["allocs_per_req"] = ratio(float64(after.Mallocs-before.Mallocs), float64(reqs))
	rep.values["fail_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	if p := tailPercentile(len(per)); p > 90 {
		rep.note("highest percentile with >=10 cells beyond it: p%g = %.1f ns/req", p, stats.Percentile(per, p))
	} else if p < 90 {
		rep.note("only %d cells: ns_per_req_p90 has fewer than ten cells beyond it", len(per))
	}
	paperCheck(w, rep, cells)
	return rep
}

// setupPasses is how often a run repeats its set-up; setup_s is the median.
const setupPasses = 5

// setupSeconds times building the machine of every cell the run times (for
// the open loop: a one-request-per-lane run per cell, which is construction
// plus eight requests), setupPasses times, and returns the median pass.
func setupSeconds(w *spec, rounds int, seed uint64) float64 {
	passes := make([]float64, setupPasses)
	for i := range passes {
		t := time.Now()
		for r := 0; r < rounds; r++ {
			for _, c := range w.cells(r) {
				if w.openLoop {
					system.RunOpenLoop(openConfig(seed, r, 1, openShards))
				} else {
					newMachine(w, c, seed, w.instruments())
				}
			}
		}
		passes[i] = time.Since(t).Seconds()
	}
	return median(passes)
}

// warmUp runs one untimed cell per distinct (backend, profile) pair, so
// lazy initialisation and heap growth finish before timing starts.
func warmUp(w *spec, n int, seed uint64) {
	runRounds(w, []int{warmupRound}, func(c cell) cellResult { return w.runCell(c, n, seed) }, self)
	if w.openLoop {
		runOpenCell(cell{round: warmupRound}, n, seed, 1)
	}
}

// verifyOpen checks each open-loop report at openShards against the
// sequential reference run of the same cell.
func verifyOpen(rep *report, cells []cellResult) {
	var seqNS, parNS int64
	for i := range cells {
		c := &cells[i]
		if c.failure != "" {
			continue
		}
		seq, _ := runOpenCell(c.cell, rep.n, rep.o.seed, 1)
		seqNS += seq.hostNS
		parNS += c.hostNS
		if seq.digest != c.digest {
			c.failure = fmt.Sprintf("shards=%d report %016x differs from shards=1 %016x", openShards, c.digest, seq.digest)
		}
	}
	rep.values["sim.shard_speedup_x"] = ratio(float64(seqNS), float64(parNS))
}

// verifyGolden checks every cell against the golden digests recorded for
// this seed and scale.
func verifyGolden(w *spec, rep *report, sets ...[]cellResult) {
	g, ok := loadGolden(w.name)
	if !ok || g.seed != rep.o.seed || g.requests != rep.n {
		rep.note("golden: none recorded for seed %d at %d requests", rep.o.seed, rep.n)
		return
	}
	checked, total := 0, 0
	for _, cells := range sets {
		total += len(cells)
		for i := range cells {
			c := &cells[i]
			want, ok := g.digests[c.cell.key()]
			if !ok {
				continue
			}
			checked++
			if c.failure == "" && want != c.digest {
				c.failure = fmt.Sprintf("digest %016x, golden %016x", c.digest, want)
			}
		}
	}
	rep.note("golden: %d of %d cells checked against golden/%s.txt", checked, total, w.name)
}

// Paper averages the suite is scored against: Table 3 (ORAM, ObfusMem+Auth)
// and Fig 4 (encryption only), all as % execution-time overhead.
var paperOverheadPct = map[string]float64{"oram": 946.1, "obfusmem-auth": 10.9, "encrypt-only": 2.2}

// paperTolerancePct fails a full-scale suite whose mean relative error
// against the paper exceeds it; EXPERIMENTS.md records about 4.7%.
const paperTolerancePct = 15

// paperCheck computes paper_err_pct on workloads that pair the unprotected
// baseline with the paper's schemes.
func paperCheck(w *spec, rep *report, cells []cellResult) {
	type key struct {
		round   int
		profile string
	}
	base := map[key]float64{}
	for _, c := range cells {
		if c.cell.backend == "unprotected" && c.failure == "" {
			base[key{c.cell.round, c.cell.profile.Name}] = float64(c.res.ExecTime)
		}
	}
	if len(base) == 0 {
		return
	}
	over := map[string][]float64{}
	for _, c := range cells {
		b := base[key{c.cell.round, c.cell.profile.Name}]
		if _, ok := paperOverheadPct[c.cell.backend]; ok && b > 0 && c.failure == "" {
			over[c.cell.backend] = append(over[c.cell.backend], (float64(c.res.ExecTime)-b)/b*100)
		}
	}
	var errs []float64
	names := make([]string, 0, len(over))
	for name := range over {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		avg, paper := stats.Mean(over[name]), paperOverheadPct[name]
		errs = append(errs, math.Abs(avg-paper)/paper*100)
		rep.note("%s: mean overhead %.2f%% over %d cells (paper %.1f%%)", name, avg, len(over[name]), paper)
	}
	e := stats.Mean(errs)
	rep.values["paper_err_pct"] = e
	if rep.n == w.requests && e > paperTolerancePct {
		rep.correct = false
		rep.note("paper_err_pct %.2f exceeds the %d%% fidelity tolerance", e, paperTolerancePct)
	}
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is a / b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
