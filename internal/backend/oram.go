package backend

import (
	"obfusmem/internal/memctl"
	"obfusmem/internal/oram"
	"obfusmem/internal/sim"
)

// ORAM adapts the paper's fixed-latency Path ORAM performance model. The
// model generates no bus traffic (the 2500 ns figure already assumes
// unlimited bandwidth), so injected bus faults cannot touch it and the
// ledger is trivially conserved.
type ORAM struct {
	model *oram.PerfModel
	mem   *memctl.Controller
	acct  Accounting
}

// Read implements Backend.
func (o *ORAM) Read(at sim.Time, addr uint64, blk *memctl.Block) (sim.Time, bool) {
	if blk != nil {
		*blk = o.mem.LoadBlock(addr)
	}
	return o.access(at), true
}

// Write implements Backend. The paper's model treats reads and writes
// identically and holds counter state on-chip, so ready is unused
// (matching the pre-registry system, which discarded the writeback time).
func (o *ORAM) Write(at sim.Time, addr uint64, ready sim.Time, blk *memctl.Block) sim.Time {
	if blk != nil {
		o.mem.StoreBlock(addr, *blk)
	}
	return o.access(at)
}

func (o *ORAM) access(at sim.Time) sim.Time {
	o.acct.Issued++
	o.acct.Completed++
	return o.model.Access(at)
}

// Drain implements Backend (nothing buffered).
func (o *ORAM) Drain(sim.Time) {}

// Err implements Backend.
func (o *ORAM) Err() error { return nil }

// Accounting implements Backend.
func (o *ORAM) Accounting() Accounting { return o.acct }

func init() {
	Register(&Descriptor{
		Name:     "oram",
		Doc:      "the paper's optimistic fixed-latency Path ORAM model (Table 3's comparison)",
		Features: Features{AtRest: true, CounterFetch: FetchNone},
		New: func(ctx Context) (Backend, error) {
			return &ORAM{model: oram.NewPerfModel(), mem: ctx.Mem}, nil
		},
	})
}
