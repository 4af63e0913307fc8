package backend

import (
	"obfusmem/internal/memctl"
	"obfusmem/internal/palermo"
	"obfusmem/internal/sim"
)

// Palermo adapts the internal/palermo controller. Reads and writes are
// indistinguishable on its wire; a write's payload rides the deferred
// eviction batch, so a value write stores functionally and lets the
// access run oblivious like any other.
type Palermo struct {
	ctl  *palermo.Controller
	mem  *memctl.Controller
	acct Accounting
}

// Controller exposes the wrapped controller for stats and tests.
func (p *Palermo) Controller() *palermo.Controller { return p.ctl }

func (p *Palermo) account(ok bool) {
	p.acct.Issued++
	if ok {
		p.acct.Completed++
	} else {
		p.acct.Lost++
	}
}

// Read implements Backend.
func (p *Palermo) Read(at sim.Time, addr uint64, blk *memctl.Block) (sim.Time, bool) {
	done, ok := p.ctl.Access(at, addr, false)
	p.account(ok)
	if blk != nil {
		*blk = p.mem.LoadBlock(addr)
	}
	return done, ok
}

// Write implements Backend.
func (p *Palermo) Write(at sim.Time, addr uint64, ready sim.Time, blk *memctl.Block) sim.Time {
	if blk != nil {
		p.mem.StoreBlock(addr, *blk)
	}
	done, ok := p.ctl.Access(ready, addr, true)
	p.account(ok)
	return done
}

// Drain implements Backend: flushes the pending eviction batch.
func (p *Palermo) Drain(at sim.Time) { p.ctl.Drain(at) }

// Err implements Backend (loss is surfaced per-request, not fail-stop).
func (p *Palermo) Err() error { return nil }

// Accounting implements Backend.
func (p *Palermo) Accounting() Accounting { return p.acct }

func init() {
	Register(&Descriptor{
		Name:     "palermo",
		Doc:      "Palermo protocol/hardware co-designed oblivious memory (arXiv 2411.05400)",
		Features: Features{AtRest: true, CounterFetch: FetchNone},
		New: func(ctx Context) (Backend, error) {
			pcfg := palermo.Config{Metrics: ctx.Metrics, Trace: ctx.Trace}
			// Stream 3 keeps the real-slot/cover draws independent of the
			// obfus (2) and handshake (1) streams.
			return &Palermo{
				ctl: palermo.New(pcfg, ctx.Bus, ctx.Mem, ctx.ForkRng(3)),
				mem: ctx.Mem,
			}, nil
		},
	})
}
