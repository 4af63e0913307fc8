package cpu

import (
	"errors"
	"testing"

	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// TestSimBudgetTrips pins the deadline contract: a run whose simulated
// clock passes Config.SimBudget panics with a typed *BudgetError carrying
// the detection point, and a generous budget never fires.
func TestSimBudgetTrips(t *testing.T) {
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	sys := system.New(system.DefaultConfig("unprotected"))

	cfg := DefaultConfig()
	cfg.SimBudget = sim.Microsecond // far below what 4000 requests need
	var be *BudgetError
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

	// The same run with no budget (and with a huge one) completes.
	cfg.SimBudget = 0
	sys2 := system.New(system.DefaultConfig("unprotected"))
	r := Run(p, 4000, sys2, cfg, 99)
	cfg.SimBudget = r.ExecTime * 2
	sys3 := system.New(system.DefaultConfig("unprotected"))
	r2 := Run(p, 4000, sys3, cfg, 99)
	if r2.ExecTime != r.ExecTime {
		t.Errorf("a non-binding budget perturbed the run: %v vs %v", r2.ExecTime, r.ExecTime)
	}
}
