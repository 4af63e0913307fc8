package cpu

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// TestUnsetFieldsDefaultOneByOne: a config that leaves Exposure unset keeps
// its own WriteBuffer; each unset field takes its default on its own.
func TestUnsetFieldsDefaultOneByOne(t *testing.T) {
	p, _ := workload.ByName("lbm")
	run := func(cfg Config) Result {
		sys := &fixedLatency{read: 50 * sim.Nanosecond, write: 2 * sim.Microsecond}
		return Run(p, 3000, sys, cfg, 5)
	}
	want := run(Config{Exposure: 0.55, WriteBuffer: 4})
	// The buffer depth matters on this run, so a dropped WriteBuffer shows.
	if run(Config{Exposure: 0.55, WriteBuffer: 16}) == want {
		t.Fatal("a 4-deep and a 16-deep write buffer ran alike")
	}
	if got := run(Config{WriteBuffer: 4}); got != want {
		t.Errorf("Config{WriteBuffer: 4}: %+v, want %+v", got, want)
	}
}

// recorder is a zero-latency MemorySystem that logs the requests the drive
// loop issues. With no latency there are no stalls, so a request's gap is
// the distance between its issue time and the previous one's.
type recorder struct {
	last sim.Time
	reqs []workload.Request
}

func (r *recorder) log(at sim.Time, addr uint64, write bool) sim.Time {
	r.reqs = append(r.reqs, workload.Request{Gap: at - r.last, Addr: addr, Write: write})
	r.last = at
	return at
}
func (r *recorder) Read(at sim.Time, addr uint64) sim.Time  { return r.log(at, addr, false) }
func (r *recorder) Write(at sim.Time, addr uint64) sim.Time { return r.log(at, addr, true) }
func (r *recorder) Drain(sim.Time)                          {}

// TestReadAheadMatchesStream: the requests the drive loop consumes through
// the read-ahead pipeline are exactly the stream's, in order, at every
// length around a block boundary. The second pass runs on pipelines the
// first one left idle.
func TestReadAheadMatchesStream(t *testing.T) {
	p, _ := workload.ByName("mcf")
	for pass := 0; pass < 2; pass++ {
		for _, n := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 5*blockLen + 3} {
			seed := uint64(11 + n)
			rec := &recorder{}
			Run(p, n, rec, DefaultConfig(), seed)
			s := workload.NewStream(p, seed)
			if len(rec.reqs) != n {
				t.Fatalf("pass %d, n=%d: drive consumed %d requests", pass, n, len(rec.reqs))
			}
			for i, got := range rec.reqs {
				if want := s.Next(); got != want {
					t.Fatalf("pass %d, n=%d: request %d is %+v, want %+v", pass, n, i, got, want)
				}
			}
		}
	}
}

// TestConcurrentRunsMatchSerial: Runs on several goroutines at once share
// the idle pipelines, and each still reads its own stream exactly.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	p, _ := workload.ByName("zeus")
	const runs = 8
	run := func(seed uint64) Result {
		return Run(p, 3*blockLen+5, &fixedLatency{read: 90 * sim.Nanosecond}, DefaultConfig(), seed)
	}
	var want, got [runs]Result
	for i := range want {
		want[i] = run(uint64(i))
	}
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(uint64(i))
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("seed %d: concurrent run %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// panicSource yields `left` requests of a stream, then panics with boom.
type panicSource struct {
	s    *workload.Stream
	left int
}

var boom = errors.New("source failed")

func (p *panicSource) Next() workload.Request {
	if p.left == 0 {
		panic(boom)
	}
	p.left--
	return p.s.Next()
}

// goroutinesBackTo reports whether the goroutine count falls to want. The
// pipeline's stop returns once the producer has run its deferred Done, and
// the goroutine then still has its exit to finish, so this yields the
// processor until the count drops. The deadline only bounds a real leak; a
// stopped producer is gone long before it.
func goroutinesBackTo(want int) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if runtime.NumGoroutine() <= want {
			return true
		}
	}
	return false
}

// TestProducerPanicReraised: a panic raised while the stream is drawn on
// the producer goroutine reaches the caller's goroutine with its value,
// after every request drawn before it, and the producer has exited.
func TestProducerPanicReraised(t *testing.T) {
	p, _ := workload.ByName("milc")
	const good = 2*blockLen + 7
	before := runtime.NumGoroutine()
	rec := &recorder{}
	func() {
		defer func() {
			if v := recover(); v != boom {
				t.Fatalf("recovered %v, want the producer's panic value %v", v, boom)
			}
		}()
		driveAhead(p.Name, &panicSource{s: workload.NewStream(p, 3), left: good}, 5*blockLen, rec, DefaultConfig())
	}()
	if len(rec.reqs) != good {
		t.Errorf("drive consumed %d requests before the panic, want %d", len(rec.reqs), good)
	}
	if !goroutinesBackTo(before) {
		t.Errorf("%d goroutines after the panic, %d before: the producer leaked", runtime.NumGoroutine(), before)
	}
}

// TestWarmRunAllocatesNoBlocks is the read-ahead free list's guard: a warm
// Run reuses an idle pipeline, so it allocates less than one request block.
// The least of a few runs is taken, so a stray runtime allocation in one
// of them cannot fail the check. bench-smoke runs this in CI.
func TestWarmRunAllocatesNoBlocks(t *testing.T) {
	p, _ := workload.ByName("lbm")
	sys := &fixedLatency{read: 50 * sim.Nanosecond, write: 2 * sim.Microsecond}
	run := func() { Run(p, 4*blockLen, sys, DefaultConfig(), 6) }
	run()
	block := uint64(blockLen * unsafe.Sizeof(workload.Request{}))
	least := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("a warm Run allocates %d B; one request block is %d B", least, block)
	if least >= block {
		t.Fatalf("a warm Run allocates %d B, at least one request block (%d B): idle pipelines are not reused", least, block)
	}
}
