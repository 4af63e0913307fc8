// Package sim holds the simulator's time base and its timing primitives.
//
// Time is an integer number of picoseconds. Resource and Pipeline are the
// time algebra every closed-loop component (CPU model, caches, memory
// controller, bus, PCM device, crypto engines) books its occupancy with.
// Engine is a small discrete-event queue; its one user is the open-loop
// scenario (system.RunOpenLoop), where arrivals do not wait for completions.
//
// Engine keeps events by value on a 4-ary min-heap keyed by (time,
// sequence), so simultaneous events fire in the order they were scheduled,
// which keeps runs fully deterministic, and a warm Schedule→fire loop
// performs no heap allocation. A callback receives the time it fires at, so
// a caller can bind a method value once and schedule it again and again
// instead of allocating a closure that captures the time.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// CPUCycle is the period of Table 2's 2 GHz core clock. The memory
// encryption engine, the counter cache and the final pad XOR are clocked
// with the core.
const CPUCycle = 500 * Picosecond

// Nanos converts a floating-point nanosecond quantity to Time, rounding to
// the nearest picosecond. It panics on invalid input (negative, NaN, or out
// of range): internal model code computing such a duration is always a bug.
// Paths fed by external input (trace files, flags) should use TryNanos.
func Nanos(ns float64) Time {
	t, err := TryNanos(ns)
	if err != nil {
		panic("sim: " + err.Error())
	}
	return t
}

// maxNanos is the largest nanosecond quantity representable as Time without
// overflowing int64 picoseconds.
const maxNanos = float64(1<<63-1) / float64(Nanosecond)

// TryNanos is the checked form of Nanos: it rejects negative, NaN, and
// out-of-range values with an error instead of panicking, so callers
// parsing untrusted input (trace gaps, CLI flags) can surface a diagnostic
// rather than crash.
func TryNanos(ns float64) (Time, error) {
	if math.IsNaN(ns) {
		return 0, fmt.Errorf("duration is NaN")
	}
	if ns < 0 {
		return 0, fmt.Errorf("negative duration %gns", ns)
	}
	if ns >= maxNanos {
		return 0, fmt.Errorf("duration %gns overflows the picosecond clock", ns)
	}
	return Time(ns*float64(Nanosecond) + 0.5), nil
}

// Float64Nanos reports t in nanoseconds.
func (t Time) Float64Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func(Time)
}

// less orders events by (at, seq). seq is unique, so the order is total.
func (a *event) less(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	heap  []event // 4-ary min-heap keyed by (at, seq)
	fired uint64
}

// NewEngine returns an engine at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule runs fn(at) at absolute time at. Scheduling in the past panics:
// that is always a model bug.
func (e *Engine) Schedule(at Time, fn func(Time)) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := event{at: at, seq: e.seq, fn: fn}
	e.seq++
	// Sift up (4-ary: parent of i is (i-1)/4).
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// step fires the next event. It reports false when the queue is empty.
func (e *Engine) step() bool {
	h := e.heap
	if len(h) == 0 {
		return false
	}
	root := h[0]
	// Sift the last element down from the root (4-ary: children of i are
	// 4i+1..4i+4).
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if h[j].less(&h[m]) {
					m = j
				}
			}
			if !h[m].less(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.heap = h
	e.now = root.at
	e.fired++
	root.fn(root.at)
	return true
}

// Run fires events in (time, schedule order) until the queue drains.
func (e *Engine) Run() {
	for e.step() {
	}
}
