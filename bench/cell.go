package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"obfusmem/internal/attack"
	"obfusmem/internal/cpu"
	"obfusmem/internal/exp"
	"obfusmem/internal/leakage"
	"obfusmem/internal/metrics"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
)

// cellResult is one cell's host timing, simulated outcome and verdict.
type cellResult struct {
	cell       cell
	requests   int   // simulated requests the cell completed
	hostNS     int64 // host time of the simulation; machine construction excluded
	newNS      int64 // host time of system.New (and the observed instruments)
	start, end time.Time
	kernelNS   float64 // speedKernel, timed on the cell's goroutine just before it
	liveHeap   float64 // live heap bytes as of the last collection, read as the cell ends
	digest     uint64
	failure    string // empty when every check passed
	res        cpu.Result
}

// instruments selects what the observed workload attaches to a machine.
type instruments struct{ metrics, trace, tap bool }

func (w *spec) instruments() instruments {
	if w.observed {
		return instruments{metrics: true, trace: true, tap: true}
	}
	return instruments{}
}

// machine is a fresh system.New machine plus whatever the cell attaches.
type machine struct {
	sys   *system.System
	mem   cpu.MemorySystem // sys, or the leakage probe wrapping it
	ccfg  cpu.Config
	rec   *trace.Recorder
	obs   *attack.Observer
	probe *leakage.Probe
}

func newMachine(w *spec, c cell, seed uint64, in instruments) machine {
	cfg, err := system.DefaultConfigByName(c.backend)
	if err != nil {
		panic(err)
	}
	cfg.Channels = w.channels
	cfg.Seed = machineSeed(seed, c)
	m := machine{ccfg: cpu.DefaultConfig()}
	if in.metrics {
		cfg.Metrics = metrics.NewRegistry()
	}
	if in.trace {
		m.rec = trace.New(0)
		cfg.Trace, m.ccfg.Trace = m.rec, m.rec
	}
	m.sys = system.New(cfg)
	m.mem = m.sys
	if in.tap {
		m.obs = attack.NewObserver(w.channels, 1<<21)
		m.sys.Bus().AttachObserver(m.obs)
		m.probe = leakage.NewProbe(m.sys)
		m.mem = m.probe
	}
	return m
}

// analysis is the observed workload's "explain the run" step: leakage
// scoring, latency attribution and a Chrome trace export. The scoring and
// export host times are returned for the traced run.
func (m machine) analysis() (evalNS, exportNS int64) {
	if m.obs != nil {
		t := time.Now()
		leakage.Evaluate(m.obs.WireTrace(), m.probe.Issued(), nil)
		evalNS = time.Since(t).Nanoseconds()
	}
	if m.rec != nil {
		m.rec.Attribution("")
		t := time.Now()
		if err := m.rec.WriteChromeTrace(io.Discard); err != nil {
			panic(err)
		}
		exportNS = time.Since(t).Nanoseconds()
	}
	return evalNS, exportNS
}

// check returns why a finished closed-loop cell is wrong, or "".
func check(sys *system.System, res cpu.Result, n int) string {
	if res.Reads+res.Writes != uint64(n) {
		return fmt.Sprintf("%d reads + %d writes != %d requests", res.Reads, res.Writes, n)
	}
	if g := sys.Accounting().Gap(); g != 0 {
		return fmt.Sprintf("request ledger gap %d", g)
	}
	if err := sys.Err(); err != nil {
		return err.Error()
	}
	if o := sys.Obfus(); o != nil {
		st := o.Stats()
		if st.DecodeMismatches != 0 || st.UnaccountedFailures() != 0 {
			return fmt.Sprintf("obfus: %d decode mismatches, %d unaccounted failures",
				st.DecodeMismatches, st.UnaccountedFailures())
		}
	}
	return ""
}

// resultDigest hashes the simulated outcome of a closed-loop cell.
func resultDigest(r cpu.Result) uint64 {
	return digest(uint64(r.ExecTime), r.Reads, r.Writes, math.Float64bits(r.MeanReadNS))
}

// openDigest hashes an open-loop report: its wire digest, gap entropy and
// every table cell.
func openDigest(r system.OpenLoopResult) uint64 {
	h := fnv.New64a()
	io.WriteString(h, r.Table.CSV())
	return digest(r.WireDigest, math.Float64bits(r.GapEntropyBits), h.Sum64())
}

func digest(words ...uint64) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h.Write(buf)
	return h.Sum64()
}

func runClosedCell(w *spec, c cell, n int, seed uint64) cellResult {
	t0 := time.Now()
	m := newMachine(w, c, seed, w.instruments())
	t1 := time.Now()
	res := cpu.Run(c.profile, n, m.mem, m.ccfg, streamSeed(seed, c))
	m.analysis()
	t2 := time.Now()
	return cellResult{cell: c, requests: n, hostNS: t2.Sub(t1).Nanoseconds(), newNS: t1.Sub(t0).Nanoseconds(),
		digest: resultDigest(res), failure: check(m.sys, res, n), res: res}
}

func openConfig(seed uint64, round, n, shards int) system.OpenLoopConfig {
	cfg := system.DefaultOpenLoopConfig()
	cfg.Requests = n
	cfg.Seed = roundSeed(seed, round)
	cfg.Shards = shards
	return cfg
}

// openShards is the shard count the open-loop workload times; 2 equals
// nproc on the reference box, and shards=1 is the sequential reference.
const openShards = 2

func runOpenCell(c cell, n int, seed uint64, shards int) (cellResult, system.OpenLoopResult) {
	cfg := openConfig(seed, c.round, n, shards)
	t := time.Now()
	r := system.RunOpenLoop(cfg)
	return cellResult{cell: c, requests: n * cfg.Channels, hostNS: time.Since(t).Nanoseconds(), digest: openDigest(r)}, r
}

// runCell runs one untraced cell.
func (w *spec) runCell(c cell, n int, seed uint64) cellResult {
	if w.openLoop {
		r, _ := runOpenCell(c, n, seed, openShards)
		return r
	}
	return runClosedCell(w, c, n, seed)
}

// phase is the outcome of a sequence of rounds.
type phase struct {
	cells  []cellResult
	wallNS int64     // Σ round wall time
	busyNS int64     // Σ cell time over all workers
	tailNS []int64   // per round: time from a worker running dry to round end
	rates  []float64 // per round: simulated requests per host second
}

// runRounds runs the given rounds one after another, each on exp.RunJobs
// with the workload's worker count; a worker starts its next cell only when
// its previous one is done. A panicking cell is recovered and marked failed.
func runRounds[T any](w *spec, rounds []int, run func(cell) T, res func(*T) *cellResult) ([]T, phase) {
	var all []T
	var ph phase
	for _, r := range rounds {
		cells := w.cells(r)
		out := make([]T, len(cells))
		start := time.Now()
		errs := exp.RunJobs(w.workers, len(cells), nil, func(i int) {
			k := speedKernel()
			t := time.Now()
			out[i] = run(cells[i])
			cr := res(&out[i])
			cr.start, cr.end, cr.kernelNS = t, time.Now(), k
			cr.liveHeap = liveHeapBytes()
		})
		end := time.Now()
		var ends []int64
		reqs := 0
		for i, err := range errs {
			cr := res(&out[i])
			if err != nil {
				*cr = cellResult{cell: cells[i], failure: err.Error()}
				continue
			}
			reqs += cr.requests
			ph.busyNS += cr.end.Sub(cr.start).Nanoseconds()
			ends = append(ends, cr.end.Sub(start).Nanoseconds())
		}
		wall := end.Sub(start).Nanoseconds()
		ph.wallNS += wall
		ph.rates = append(ph.rates, ratio(float64(reqs), float64(wall)/1e9))
		// The first worker runs dry when the w.workers-th latest cell ends.
		sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
		if k := w.workers - 1; k < len(ends) {
			ph.tailNS = append(ph.tailNS, wall-ends[k])
		}
		all = append(all, out...)
	}
	for i := range all {
		ph.cells = append(ph.cells, *res(&all[i]))
	}
	return all, ph
}

func self(c *cellResult) *cellResult { return c }

func roundRange(from, to int) []int {
	out := make([]int, 0, to-from)
	for r := from; r < to; r++ {
		out = append(out, r)
	}
	return out
}

// nsPerReq lists host ns per simulated request for every timed cell.
func nsPerReq(cells []cellResult) []float64 {
	var out []float64
	for _, c := range cells {
		if c.requests > 0 && c.hostNS > 0 {
			out = append(out, float64(c.hostNS)/float64(c.requests))
		}
	}
	return out
}

// Host time on a shared machine carries co-tenant interference that comes
// and goes over seconds to minutes; it only ever adds time. The end-to-end
// timings therefore take a low percentile of each cell type's rounds and
// scale by the host's speed during the run, measured with a fixed kernel
// that shares no code with the simulator.

// floorPct is the percentile of a cell type's rounds taken as its cost.
// A closed-loop cell runs on one goroutine, and its fast rounds are the
// reproducible ones. An open-loop cell runs two shard goroutines in
// lockstep, and its fast tail depends on how the pair happened to be
// scheduled; its median reproduces better (see README.md).
func (w *spec) floorPct() float64 {
	if w.openLoop {
		return 50
	}
	return 10
}

// floorNSPerReq is the mean over cell types (backend x profile) of each
// type's pct-th percentile host ns per request across rounds. Every cell of
// a workload has the same request count, so it is the cost of one request
// of the workload's mix.
func floorNSPerReq(cells []cellResult, pct float64) float64 {
	byType := map[string][]float64{}
	var keys []string
	for _, c := range cells {
		if c.requests == 0 || c.hostNS == 0 {
			continue
		}
		k := c.cell.backend + "/" + c.cell.profile.Name
		if _, ok := byType[k]; !ok {
			keys = append(keys, k)
		}
		byType[k] = append(byType[k], float64(c.hostNS)/float64(c.requests))
	}
	var floors []float64
	for _, k := range keys {
		floors = append(floors, stats.Percentile(byType[k], pct))
	}
	return stats.Mean(floors)
}

// kernelRefNS is speedKernel's median on the reference box (2 vCPU Xeon) in
// its fast state. Host times are reported at that speed.
const kernelRefNS = 105_000

var kernelBuf = make([]byte, 32<<10)

// speedKernel times a fixed compute kernel: four SHA-256 digests of 32 KiB.
// It shares no code with the simulator, so its time tracks only how fast
// the host runs at that moment.
func speedKernel() float64 {
	t := time.Now()
	var sum [sha256.Size]byte
	for i := 0; i < 4; i++ {
		sum = sha256.Sum256(kernelBuf)
	}
	d := time.Since(t)
	runtime.KeepAlive(sum)
	return float64(d)
}

// liveHeapBytes reads the heap the last garbage collection found live. A
// process's peak RSS depends on when collections happen to run relative to
// both workers' cells; the live heap, taken as a median over cells, varies
// far less.
func liveHeapBytes() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// slowdown is how much slower than the reference the host ran during the
// cells: the median of their kernel times over kernelRefNS.
func slowdown(cells []cellResult) float64 {
	var k []float64
	for _, c := range cells {
		if c.kernelNS > 0 {
			k = append(k, c.kernelNS)
		}
	}
	if len(k) == 0 {
		return 1
	}
	return median(k) / kernelRefNS
}
