// Package cpu is the closed-loop execution-time model that drives a memory
// system with a workload profile's request stream and accounts for how much
// of each memory latency reaches execution time.
//
// The model mirrors how the paper's evaluation works: benchmarks are
// characterised by their post-LLC request stream (Table 1), the memory
// system under test services each request with some latency, and execution
// time is compute time plus the exposed fraction of demand-read latency
// (out-of-order cores hide part of every miss behind independent work;
// writebacks are posted and stall only through write-buffer back-pressure).
package cpu

import (
	"fmt"
	"sort"

	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
)

// MemorySystem is the device under test.
type MemorySystem interface {
	// Read services a demand read issued at `at`, returning data-ready time.
	Read(at sim.Time, addr uint64) sim.Time
	// Write posts a writeback issued at `at`, returning its retirement
	// time (used only for write-buffer back-pressure).
	Write(at sim.Time, addr uint64) sim.Time
	// Drain flushes any buffered state at end of run.
	Drain(at sim.Time)
}

// writeBuffer is the number of outstanding writebacks the core tolerates
// before stalling.
const writeBuffer = 16

// Config tunes the core model.
type Config struct {
	// Exposure is the fraction of demand-read latency that reaches
	// execution time (the rest is hidden by out-of-order overlap). A
	// non-positive value takes the default.
	Exposure float64
	// Trace, when non-nil, opens one request envelope per demand read and
	// writeback (issue to completion), which is what scopes every component
	// span recorded inside the memory system to a request. Nil disables.
	Trace *trace.Recorder
	// Sampler, when non-nil, is poked with sim-time progress so it can
	// snapshot the metrics registry on its fixed interval. Nil disables.
	Sampler *trace.Sampler
	// SimBudget, when > 0, is a deadline on the run's simulated clock: if
	// the model's time passes the budget before the request stream is
	// exhausted, the drive loop raises a typed *BudgetError panic. The
	// budget is a robustness backstop, not a modelling knob — a run whose
	// simulated time diverges (a backend latency bug, a pathological
	// retry loop) is detected deterministically instead of spinning the
	// worker that hosts it. The campaign runner recovers the panic at the
	// cell boundary and records the cell as failed; direct callers that
	// set SimBudget must be prepared to recover it themselves.
	SimBudget sim.Time
}

// DefaultConfig matches the calibration in DESIGN.md.
func DefaultConfig() Config {
	return Config{Exposure: 0.55}
}

// Result summarises one run.
type Result struct {
	Benchmark    string
	Requests     uint64
	Reads        uint64
	Writes       uint64
	ExecTime     sim.Time
	Instructions float64
	IPC          float64
	MPKI         float64
	MeanGapNS    float64 // measured mean gap between requests
	MeanReadNS   float64 // mean demand-read latency
	MaxReadNS    float64
	StallTime    sim.Time
}

// requestSource abstracts where the post-LLC request stream comes from: a
// calibrated synthetic generator (Run) or a recorded trace (RunTrace).
type requestSource interface {
	Next() workload.Request
}

type sliceSource struct {
	reqs []workload.Request
	i    int
}

func (s *sliceSource) Next() workload.Request {
	r := s.reqs[s.i]
	s.i++
	return r
}

// Run drives n requests of the profile through the system. The stream is
// drawn on its own goroutine, ahead of the drive loop (readahead.go).
func Run(p workload.Profile, n int, sys MemorySystem, cfg Config, seed uint64) Result {
	res := driveAhead(p.Name, workload.NewStream(p, seed), n, sys, cfg)
	res.Instructions = float64(n) / p.RequestsPerKI() * 1000
	cycles := res.ExecTime.Float64Nanos() * workload.CPUFreqGHz
	if cycles > 0 {
		res.IPC = res.Instructions / cycles
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.Reads) / res.Instructions * 1000
	}
	return res
}

// RunTrace replays an explicit request sequence (e.g. loaded from a trace
// file produced by cmd/tracegen). Instruction-derived metrics (IPC, MPKI)
// are zero because a raw trace carries no instruction counts.
func RunTrace(name string, reqs []workload.Request, sys MemorySystem, cfg Config) Result {
	return drive(name, &sliceSource{reqs: reqs}, len(reqs), sys, cfg)
}

// drive is the closed-loop core model shared by Run and RunTrace.
func drive(name string, stream requestSource, n int, sys MemorySystem, cfg Config) Result {
	if cfg.Exposure <= 0 {
		cfg.Exposure = DefaultConfig().Exposure
	}
	res := Result{Benchmark: name}
	now := sim.Time(0)
	// Outstanding writeback retirement times, ascending. A full buffer is
	// popped before the next insert, so it never holds more than
	// writeBuffer entries; pruned and popped in place, it is allocated once
	// per run.
	pendingWrites := make([]sim.Time, 0, writeBuffer)
	var latSum float64

	for i := 0; i < n; i++ {
		req := stream.Next()
		now += req.Gap
		if cfg.SimBudget > 0 && now > cfg.SimBudget {
			panic(&BudgetError{Benchmark: name, Now: now, Budget: cfg.SimBudget, Requests: uint64(i)})
		}
		cfg.Sampler.Advance(now)
		if req.Write {
			res.Writes++
			// Prune retired writes; stall if the buffer is full.
			pendingWrites = pruneBefore(pendingWrites, now)
			if len(pendingWrites) >= writeBuffer {
				// Wait for the oldest outstanding write.
				wait := pendingWrites[0]
				if wait > now {
					res.StallTime += wait - now
					now = wait
				}
				pendingWrites = pendingWrites[:copy(pendingWrites, pendingWrites[1:])]
			}
			id := cfg.Trace.BeginRequest(names.ReqWrite, req.Addr, now)
			done := sys.Write(now, req.Addr)
			cfg.Trace.EndRequest(id, done)
			pendingWrites = insertSorted(pendingWrites, done)
		} else {
			res.Reads++
			id := cfg.Trace.BeginRequest(names.ReqRead, req.Addr, now)
			done := sys.Read(now, req.Addr)
			cfg.Trace.EndRequest(id, done)
			lat := done - now
			if lat < 0 {
				lat = 0
			}
			latSum += lat.Float64Nanos()
			if f := lat.Float64Nanos(); f > res.MaxReadNS {
				res.MaxReadNS = f
			}
			stall := sim.Time(cfg.Exposure * float64(lat))
			res.StallTime += stall
			now += stall
		}
	}
	sys.Drain(now)
	cfg.Sampler.Advance(now)
	res.Requests = uint64(n)
	res.ExecTime = now
	if n > 0 {
		res.MeanGapNS = now.Float64Nanos() / float64(n)
	}
	if res.Reads > 0 {
		res.MeanReadNS = latSum / float64(res.Reads)
	}
	return res
}

func pruneBefore(ts []sim.Time, now sim.Time) []sim.Time {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > now })
	return ts[:copy(ts, ts[i:])]
}

func insertSorted(ts []sim.Time, t sim.Time) []sim.Time {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > t })
	ts = append(ts, 0)
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	return ts
}

// BudgetError is the typed panic value raised by the drive loop when a
// run's simulated clock exceeds Config.SimBudget. It deliberately travels
// as a panic: MemorySystem has no error channel on the request path, and
// the budget exists precisely for runs whose control flow can no longer be
// trusted to return. Recover it at a job boundary (the campaign runner and
// the exp worker pool both do) and treat the run as failed.
type BudgetError struct {
	Benchmark string
	Now       sim.Time // simulated time at detection
	Budget    sim.Time // the configured deadline
	Requests  uint64   // requests completed before the deadline hit
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("cpu: %s exceeded simulated budget: now %v > budget %v after %d requests",
		e.Benchmark, e.Now, e.Budget, e.Requests)
}

// Overhead returns (exec - base) / base as a percentage.
func Overhead(base, exec Result) float64 {
	if base.ExecTime == 0 {
		return 0
	}
	return (float64(exec.ExecTime) - float64(base.ExecTime)) / float64(base.ExecTime) * 100
}

// Speedup returns base-relative speedup of a over b (how many times faster
// a is than b).
func Speedup(a, b Result) float64 {
	if a.ExecTime == 0 {
		return 0
	}
	return float64(b.ExecTime) / float64(a.ExecTime)
}
