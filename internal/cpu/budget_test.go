package cpu

import (
	"errors"
	"runtime"
	"testing"

	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// TestSimBudgetTrips pins the deadline contract: a run whose simulated
// clock passes Config.SimBudget panics with a typed *BudgetError carrying
// the detection point, and a generous budget never fires. The trip also
// stops the read-ahead producer: the goroutine count is back where it was,
// and the next run with the same seed matches the stream drawn inline.
func TestSimBudgetTrips(t *testing.T) {
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	sys := system.New(system.DefaultConfig("unprotected"))

	cfg := DefaultConfig()
	cfg.SimBudget = sim.Microsecond // far below what 4000 requests need
	var be *BudgetError
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("run under a 1us budget did not trip the deadline")
			}
			err, ok := v.(error)
			if !ok || !errors.As(err, &be) {
				t.Fatalf("panic value %v (%T), want *BudgetError", v, v)
			}
		}()
		Run(p, 4000, sys, cfg, 99)
	}()
	if be.Benchmark != "milc" || be.Now <= be.Budget || be.Requests >= 4000 {
		t.Errorf("budget error fields inconsistent: %+v", be)
	}
	if be.Error() == "" {
		t.Error("empty error text")
	}
	if !goroutinesBackTo(before) {
		t.Errorf("%d goroutines after the trip, %d before: the producer leaked", runtime.NumGoroutine(), before)
	}

	// The same run with no budget (and with a huge one) completes, and
	// matches a drive over the stream drawn inline.
	cfg.SimBudget = 0
	sys2 := system.New(system.DefaultConfig("unprotected"))
	r := Run(p, 4000, sys2, cfg, 99)
	want := drive(p.Name, workload.NewStream(p, 99), 4000, system.New(system.DefaultConfig("unprotected")), cfg)
	// Run adds only the fields it derives from the profile and n.
	want.Instructions, want.IPC, want.MPKI = r.Instructions, r.IPC, r.MPKI
	if r != want {
		t.Errorf("run after the trip: %+v, want the inline stream's %+v", r, want)
	}
	cfg.SimBudget = r.ExecTime * 2
	sys3 := system.New(system.DefaultConfig("unprotected"))
	r2 := Run(p, 4000, sys3, cfg, 99)
	if r2.ExecTime != r.ExecTime {
		t.Errorf("a non-binding budget perturbed the run: %v vs %v", r2.ExecTime, r.ExecTime)
	}
}
