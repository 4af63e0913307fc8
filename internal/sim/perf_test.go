package sim

import (
	"sort"
	"testing"
)

// TestScheduleFireZeroAllocs is the regression guard for the engine hot
// path: once the heap slice has grown to steady-state depth, Schedule→fire
// must not allocate. bench-smoke runs this in CI.
func TestScheduleFireZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func(Time) {}
	// Warm-up: grow the heap slice to steady-state depth.
	for i := 0; i < 64; i++ {
		e.Schedule(e.now+Time(i%7), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.now+3, fn)
		e.Schedule(e.now+1, fn)
		e.step()
		e.step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/fire allocates %.1f allocs/op, want 0", allocs)
	}
}

// FuzzEngineOrder schedules events at fuzzed offsets, some before the run,
// some between single steps and some from inside firing callbacks, and
// checks what the engine promises: every event fires exactly once, at the
// time it was scheduled for and passed that time as its argument, time
// never goes backwards, and the firing order is the stable sort of
// (time, scheduling order), so equal-time events fire in the order they
// were scheduled.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 9, 1, 0, 2, 1, 3, 2, 2, 2})
	f.Add([]byte{2, 2, 2, 0, 7, 1, 0, 0, 1, 2, 1, 1, 2, 2})
	// Forty-eight events queued before the run reach the heap's third
	// level, where a sift that skips a child would misorder them.
	deep := make([]byte, 0, 96)
	for i := 0; i < 48; i++ {
		deep = append(deep, 0, byte(i*37))
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, data []byte) {
		type record struct {
			at    Time
			seq   int
			fired int
		}
		e := NewEngine()
		var recs []*record
		var order []int
		lastFire := Time(-1)
		// schedule queues one event offset picoseconds from now; when
		// spawn is non-nil the event schedules that child as it fires.
		var schedule func(offset Time, spawn *Time)
		schedule = func(offset Time, spawn *Time) {
			r := &record{at: e.now + offset, seq: len(recs)}
			recs = append(recs, r)
			e.Schedule(r.at, func(at Time) {
				r.fired++
				if e.now != r.at {
					t.Fatalf("event %d fired at %v, scheduled for %v", r.seq, e.now, r.at)
				}
				if at != r.at {
					t.Fatalf("event %d got argument %v, scheduled for %v", r.seq, at, r.at)
				}
				if e.now < lastFire {
					t.Fatalf("time went backwards: %v after %v", e.now, lastFire)
				}
				lastFire = e.now
				order = append(order, r.seq)
				if spawn != nil {
					schedule(*spawn, nil)
				}
			})
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			switch op {
			case 0: // schedule from outside the run
				schedule(Time(arg&0x3f), nil)
			case 1: // schedule an event that schedules a child when it fires
				child := Time(arg >> 3 & 0x1f)
				schedule(Time(arg&0x07), &child)
			case 2: // fire one event
				e.step()
			}
		}
		e.Run()
		if int(e.Fired()) != len(recs) {
			t.Fatalf("Fired() = %d, want %d", e.Fired(), len(recs))
		}
		for _, r := range recs {
			if r.fired != 1 {
				t.Fatalf("event %d fired %d times, want 1", r.seq, r.fired)
			}
		}
		want := make([]*record, len(recs))
		copy(want, recs)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for i, r := range want {
			if order[i] != r.seq {
				t.Fatalf("firing order %v, want (at, seq) order at position %d: event %d", order, i, r.seq)
			}
		}
	})
}

// benchChurn drives a steady-state event churn: a K-deep queue where every
// fired event schedules a successor, the open loop's pattern (each arrival
// schedules the next one).
const benchChurnDepth = 64

func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	var fn func(Time)
	fn = func(now Time) { e.Schedule(now+Time(1+e.Fired()%13), fn) }
	for i := 0; i < benchChurnDepth; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}
