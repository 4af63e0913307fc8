package cpu

import (
	"testing"

	"obfusmem/internal/sim"
	"obfusmem/internal/workload"
)

// fixedLatency is a trivial MemorySystem for unit-testing the core model.
type fixedLatency struct {
	read          sim.Time
	write         sim.Time
	reads, writes int
}

func (f *fixedLatency) Read(at sim.Time, addr uint64) sim.Time {
	f.reads++
	return at + f.read
}
func (f *fixedLatency) Write(at sim.Time, addr uint64) sim.Time {
	f.writes++
	return at + f.write
}
func (f *fixedLatency) Drain(at sim.Time) {}

func TestRunBasics(t *testing.T) {
	p, _ := workload.ByName("milc")
	sys := &fixedLatency{read: 80 * sim.Nanosecond, write: 80 * sim.Nanosecond}
	res := Run(p, 5000, sys, DefaultConfig(), 1)
	if res.Requests != 5000 || res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("counts wrong: %+v", res)
	}
	if res.Reads != uint64(sys.reads) || res.Writes != uint64(sys.writes) {
		t.Fatal("system call counts disagree with result")
	}
	if res.ExecTime <= 0 || res.IPC <= 0 || res.MPKI <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
	// Mean read latency is exactly the fixed latency.
	if res.MeanReadNS < 79.9 || res.MeanReadNS > 80.1 {
		t.Fatalf("MeanReadNS = %v, want 80", res.MeanReadNS)
	}
}

func TestExposureScalesStalls(t *testing.T) {
	p, _ := workload.ByName("bwaves")
	run := func(expo float64) Result {
		sys := &fixedLatency{read: 100 * sim.Nanosecond}
		return Run(p, 3000, sys, Config{Exposure: expo, WriteBuffer: 16}, 2)
	}
	low := run(0.2)
	high := run(0.9)
	if high.ExecTime <= low.ExecTime {
		t.Fatalf("higher exposure did not slow execution: %v vs %v", high.ExecTime, low.ExecTime)
	}
	if high.StallTime <= low.StallTime {
		t.Fatal("stall accounting inconsistent")
	}
}

func TestSlowMemorySlowsExecution(t *testing.T) {
	p, _ := workload.ByName("mcf")
	fast := Run(p, 3000, &fixedLatency{read: 80 * sim.Nanosecond}, DefaultConfig(), 3)
	slow := Run(p, 3000, &fixedLatency{read: 2500 * sim.Nanosecond}, DefaultConfig(), 3)
	if Overhead(fast, slow) < 300 {
		t.Fatalf("2500ns memory overhead only %.1f%%", Overhead(fast, slow))
	}
	if Speedup(fast, slow) < 3 {
		t.Fatalf("speedup = %v", Speedup(fast, slow))
	}
}

func TestWriteBufferBackPressure(t *testing.T) {
	// Writes far slower than the request rate must eventually stall the
	// core via the bounded write buffer.
	p, _ := workload.ByName("lbm") // write-heavy
	slowW := Run(p, 3000, &fixedLatency{read: 50 * sim.Nanosecond, write: 10 * sim.Microsecond},
		Config{Exposure: 0.5, WriteBuffer: 4}, 4)
	fastW := Run(p, 3000, &fixedLatency{read: 50 * sim.Nanosecond, write: 50 * sim.Nanosecond},
		Config{Exposure: 0.5, WriteBuffer: 4}, 4)
	if slowW.ExecTime <= fastW.ExecTime {
		t.Fatal("slow writes never back-pressured the core")
	}
}

func TestRunDeterminism(t *testing.T) {
	p, _ := workload.ByName("zeus")
	a := Run(p, 2000, &fixedLatency{read: 90 * sim.Nanosecond}, DefaultConfig(), 7)
	b := Run(p, 2000, &fixedLatency{read: 90 * sim.Nanosecond}, DefaultConfig(), 7)
	if a.ExecTime != b.ExecTime || a.Reads != b.Reads {
		t.Fatal("Run not deterministic")
	}
}

// TestNonPositiveWriteBufferDefaults: a config that sets Exposure but not
// WriteBuffer runs with the default buffer depth instead of indexing an
// empty buffer on its first writeback.
func TestNonPositiveWriteBufferDefaults(t *testing.T) {
	p, _ := workload.ByName("lbm")
	run := func(wb int) Result {
		sys := &fixedLatency{read: 50 * sim.Nanosecond, write: 2 * sim.Microsecond}
		return Run(p, 3000, sys, Config{Exposure: 0.5, WriteBuffer: wb}, 5)
	}
	want := run(DefaultConfig().WriteBuffer)
	for _, wb := range []int{0, -1} {
		if got := run(wb); got != want {
			t.Errorf("WriteBuffer %d: %+v, want the default buffer's %+v", wb, got, want)
		}
	}
}

// TestDriveAllocsIndependentOfRequests is the closed loop's allocation
// guard: the drive loop's write buffer is allocated once per run, so a
// longer run of a write-heavy profile against slow writes (a full buffer,
// pruned and popped on most writebacks) allocates no more than a short one.
// bench-smoke runs this in CI.
func TestDriveAllocsIndependentOfRequests(t *testing.T) {
	p, _ := workload.ByName("lbm")
	sys := &fixedLatency{read: 50 * sim.Nanosecond, write: 2 * sim.Microsecond}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { Run(p, n, sys, DefaultConfig(), 6) })
	}
	const short, long = 2000, 8000
	a, b := allocs(short), allocs(long)
	per := (b - a) / (long - short)
	t.Logf("%.0f allocs at %d requests, %.0f at %d: %.4f per added request", a, short, b, long, per)
	if per >= 0.01 {
		t.Fatalf("%d requests: %.0f allocations, %d requests: %.0f (%.3f per added request, want < 0.01)",
			short, a, long, b, per)
	}
}
