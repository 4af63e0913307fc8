package sim

import (
	"testing"
)

// TestScheduleFireRecycleZeroAllocs is the PR 4 regression guard for the
// engine hot path: once the free list is warm, Schedule→fire→recycle must
// not allocate. bench-smoke runs this in CI.
func TestScheduleFireRecycleZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm-up: grow the heap slice and free list to steady-state depth.
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+Time(i%7), fn)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+3, fn)
		e.Schedule(e.Now()+1, fn)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/fire/recycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStaleRefCancelIsNoOp pins the generation guard: an EventRef retained
// past its event's firing must not be able to cancel the next occupant of
// the recycled storage.
func TestStaleRefCancelIsNoOp(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(10, func() {})
	e.Run() // fires and recycles the event storage
	fired := false
	fresh := e.Schedule(20, func() { fired = true })
	// With one event recycled, the new schedule reuses the same storage.
	e.Cancel(stale) // must be a generation-mismatch no-op
	if stale.Cancelled() {
		t.Error("stale handle reports Cancelled() = true")
	}
	if stale.When() != 0 {
		t.Errorf("stale handle When() = %v, want 0", stale.When())
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed a live recycled event")
	}
	if fresh.Cancelled() {
		t.Error("fresh handle reports Cancelled() after firing")
	}
}

// TestRunUntilSkipsCancelledHead covers the lazy-cancellation interaction
// with RunUntil's deadline peek: a tombstoned event at the head of the heap
// must not cause an event beyond the deadline to fire.
func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := NewEngine()
	doomed := e.Schedule(5, func() { t.Error("cancelled event fired") })
	late := 0
	e.Schedule(50, func() { late++ })
	e.Cancel(doomed)
	e.RunUntil(10)
	if late != 0 {
		t.Fatal("RunUntil fired an event past the deadline while skipping a tombstone")
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 (tombstone must not count)", e.Pending())
	}
	e.RunUntil(100)
	if late != 1 {
		t.Fatal("live event did not fire after the deadline advanced")
	}
}

// TestCancelInsideOwnCallback: cancelling the firing event from inside its
// own callback is a no-op (it already ran) and must not corrupt recycling.
func TestCancelInsideOwnCallback(t *testing.T) {
	e := NewEngine()
	var self EventRef
	ran := false
	self = e.Schedule(10, func() {
		ran = true
		e.Cancel(self)
	})
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if self.Cancelled() {
		t.Error("self-cancel inside callback marked a fired event cancelled")
	}
}

// FuzzEventRecycling interleaves Schedule, Cancel (including via stale
// handles), and Step on an engine whose events are recycled, checking that
// a cancelled callback never fires, nothing fires twice, time never goes
// backwards, and every never-cancelled event does fire once the queue
// drains.
func FuzzEventRecycling(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 9, 1, 0, 2, 1, 3, 2, 2, 2})
	f.Add([]byte{2, 2, 2, 0, 7, 1, 0, 0, 1, 2, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		type record struct {
			ref       EventRef
			fired     int
			cancelled bool // observed via ref.Cancelled() right after Cancel
		}
		e := NewEngine()
		var recs []*record
		lastFire := Time(-1)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			switch op {
			case 0: // schedule
				r := &record{}
				r.ref = e.Schedule(e.Now()+Time(arg&0x3f), func() {
					r.fired++
					if r.cancelled {
						t.Fatal("cancelled event fired")
					}
					if e.Now() < lastFire {
						t.Fatalf("time went backwards: %v after %v", e.Now(), lastFire)
					}
					lastFire = e.Now()
				})
				recs = append(recs, r)
			case 1: // cancel an arbitrary (possibly fired/stale) handle
				if len(recs) > 0 {
					r := recs[int(arg)%len(recs)]
					e.Cancel(r.ref)
					if r.ref.Cancelled() {
						if r.fired > 0 {
							t.Fatal("handle of a fired event reports Cancelled()")
						}
						r.cancelled = true
					}
				}
			case 2: // step
				e.Step()
			}
		}
		e.Run()
		if e.Pending() != 0 {
			t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
		}
		for i, r := range recs {
			if r.fired > 1 {
				t.Fatalf("record %d fired %d times", i, r.fired)
			}
			if r.cancelled && r.fired != 0 {
				t.Fatalf("record %d fired despite cancellation", i)
			}
			if !r.cancelled && r.fired != 1 {
				t.Fatalf("record %d never fired (stale Cancel hit a live event?)", i)
			}
		}
	})
}

// benchChurn drives a steady-state event churn: a K-deep queue where every
// fired event schedules a successor, the dominant pattern in the simulator
// (bus transfers, pipeline completions, retry timers).
const benchChurnDepth = 64

func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	var fn func()
	fn = func() { e.Schedule(e.Now()+Time(1+e.Fired()%13), fn) }
	for i := 0; i < benchChurnDepth; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
