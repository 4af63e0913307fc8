package sim

import (
	"math"
	"testing"
	"testing/quick"

	"obfusmem/internal/xrand"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{Nanosecond, "1.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestNanos(t *testing.T) {
	if Nanos(1.5) != 1500 {
		t.Fatalf("Nanos(1.5) = %d, want 1500", Nanos(1.5))
	}
	if Nanos(0) != 0 {
		t.Fatalf("Nanos(0) = %d, want 0", Nanos(0))
	}
	if got := Time(2500 * Nanosecond).Float64Nanos(); got != 2500 {
		t.Fatalf("Float64Nanos = %v, want 2500", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func(Time) { order = append(order, 3) })
	e.Schedule(10, func(Time) { order = append(order, 1) })
	e.Schedule(20, func(Time) { order = append(order, 2) })
	// Same timestamp: FIFO by scheduling order.
	e.Schedule(20, func(Time) { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.now != 30 {
		t.Errorf("now = %v, want 30", e.now)
	}
	if e.Fired() != 4 {
		t.Errorf("Fired() = %d, want 4", e.Fired())
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(5, func(now Time) {
		got = append(got, now)
		e.Schedule(now+7, func(now Time) { got = append(got, now) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 5 || got[1] != 12 {
		t.Fatalf("got %v, want [5 12]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func(Time) {})
	})
	e.Run()
}

func TestResource(t *testing.T) {
	r := NewResource()
	if got := r.Acquire(100, 50); got != 100 {
		t.Fatalf("first Acquire start = %d, want 100", got)
	}
	// Second request at an earlier time must queue behind the first.
	if got := r.Acquire(90, 25); got != 150 {
		t.Fatalf("second Acquire start = %d, want 150", got)
	}
	if r.FreeAt() != 175 {
		t.Fatalf("FreeAt = %d, want 175", r.FreeAt())
	}
	if !r.IdleAt(200) || r.IdleAt(160) {
		t.Error("IdleAt misreports occupancy")
	}
	if r.BusyTime() != 75 {
		t.Fatalf("BusyTime = %d, want 75", r.BusyTime())
	}
	if r.Uses() != 2 {
		t.Fatalf("Uses = %d, want 2", r.Uses())
	}
}

// Property: a resource never overlaps reservations and never goes backwards.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := NewResource()
		prevEnd := Time(0)
		at := Time(0)
		for _, q := range reqs {
			hold := Time(q%97) + 1
			at += Time(q % 13)
			start := r.Acquire(at, hold)
			if start < at || start < prevEnd {
				return false
			}
			prevEnd = start + hold
			if r.FreeAt() != prevEnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPipeline(t *testing.T) {
	// 24-cycle latency at 4ns cycle, one op per cycle: the AES engine.
	p := NewPipeline(24*4*Nanosecond, 4*Nanosecond)
	d1 := p.Issue(0)
	if d1 != 96*Nanosecond {
		t.Fatalf("first op done at %v, want 96ns", d1)
	}
	d2 := p.Issue(0)
	if d2 != 100*Nanosecond {
		t.Fatalf("second op done at %v, want 100ns (one interval later)", d2)
	}
	// On a fresh pipeline, six pads for a write request finish 5 intervals
	// after the first.
	p = NewPipeline(24*4*Nanosecond, 4*Nanosecond)
	done := p.IssueN(0, 6)
	if done != (96+5*4)*Nanosecond {
		t.Fatalf("six pads done at %v, want 116ns", done)
	}
	if p.Ops() != 6 {
		t.Fatalf("Ops = %d, want 6", p.Ops())
	}
}

// TestIssueNMatchesIssueLoop checks the closed-form IssueN against n
// single Issue calls on a twin pipeline with the same prior occupancy,
// with the batch arriving both while the pipeline is still busy and after
// it has gone idle.
func TestIssueNMatchesIssueLoop(t *testing.T) {
	r := xrand.New(25)
	var busy, idle int
	for trial := 0; trial < 2000; trial++ {
		lat := Time(r.Intn(200 * int(Nanosecond)))
		ival := Time(r.Intn(10*int(Nanosecond))) + 1
		a, b := NewPipeline(lat, ival), NewPipeline(lat, ival)
		for k, at := r.Intn(8), Time(0); k > 0; k-- {
			at += Time(r.Intn(20 * int(Nanosecond)))
			a.Issue(at)
			b.Issue(at)
		}
		free := a.issue.FreeAt()
		at := free + Time(r.Intn(40*int(Nanosecond))) - 20*Nanosecond
		if at < 0 {
			at = 0
		}
		if at < free {
			busy++
		} else {
			idle++
		}
		n := r.Intn(301)
		got := a.IssueN(at, n)
		want := at
		for i := 0; i < n; i++ {
			want = b.Issue(at)
		}
		if got != want || a.issue.FreeAt() != b.issue.FreeAt() ||
			a.issue.BusyTime() != b.issue.BusyTime() || a.Ops() != b.Ops() {
			t.Fatalf("trial %d (latency %v, interval %v, at %v, prior free %v, n %d): "+
				"IssueN done %v free %v busy %v ops %d; loop done %v free %v busy %v ops %d",
				trial, lat, ival, at, free, n,
				got, a.issue.FreeAt(), a.issue.BusyTime(), a.Ops(),
				want, b.issue.FreeAt(), b.issue.BusyTime(), b.Ops())
		}
	}
	if busy == 0 || idle == 0 {
		t.Fatalf("batches arrived %d times while busy and %d times idle; want both", busy, idle)
	}
}

func TestPipelineInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPipeline with zero interval did not panic")
		}
	}()
	NewPipeline(10, 0)
}

// TestTryNanos covers the checked conversion: valid values round to the
// nearest picosecond, malformed ones (negative, NaN, Inf, overflow) return
// an error instead of panicking.
func TestTryNanos(t *testing.T) {
	valid := []struct {
		ns   float64
		want Time
	}{
		{0, 0},
		{1.5, 1500},
		{0.0004, 0}, // rounds down
		{0.0006, 1}, // rounds up to 1 ps
		{51.54, 51540},
		{1e9, Second},
	}
	for _, c := range valid {
		got, err := TryNanos(c.ns)
		if err != nil {
			t.Errorf("TryNanos(%v) unexpected error: %v", c.ns, err)
			continue
		}
		if got != c.want {
			t.Errorf("TryNanos(%v) = %d, want %d", c.ns, got, c.want)
		}
	}

	invalid := []float64{
		-1, -0.001, math.NaN(), math.Inf(1),
		float64(1<<63) / 1000, // exactly at the overflow boundary
		1e300,
	}
	for _, ns := range invalid {
		if got, err := TryNanos(ns); err == nil {
			t.Errorf("TryNanos(%v) = %d, want error", ns, got)
		}
	}
	// Negative infinity is negative, not NaN: still an error.
	if _, err := TryNanos(math.Inf(-1)); err == nil {
		t.Error("TryNanos(-Inf) accepted")
	}
}

// TestTryNanosAgreesWithNanos fuzzes the checked and panicking forms
// against each other over the valid domain.
func TestTryNanosAgreesWithNanos(t *testing.T) {
	f := func(raw uint32) bool {
		ns := float64(raw) / 17.0
		got, err := TryNanos(ns)
		if err != nil {
			return false
		}
		return got == Nanos(ns)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNanosPanicsOnNegative pins the panicking contract of the unchecked
// form (internal-model bug escalation).
func TestNanosPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nanos(-1) did not panic")
		}
	}()
	Nanos(-1)
}
