package backend

import (
	"obfusmem/internal/memctl"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
)

// Obfus adapts the ObfusMem controller (internal/obfus) to the Backend
// interface. Two names register over the same adapter: "obfusmem" (the
// paper's obfuscation without bus authentication) and "obfusmem-auth"
// (encrypt-and-MAC, the full design). They differ only in the Obfus
// block their descriptor starts from — construction consumes whatever the
// config carries, so ablation sweeps tweak freely.
type Obfus struct {
	ctl *obfus.Controller
}

// Controller exposes the wrapped controller for stats and tests.
func (o *Obfus) Controller() *obfus.Controller { return o.ctl }

// Read implements Backend.
func (o *Obfus) Read(at sim.Time, addr uint64, blk *memctl.Block) (sim.Time, bool) {
	return o.ctl.ReadBlock(at, addr, blk)
}

// Write implements Backend.
func (o *Obfus) Write(at sim.Time, addr uint64, ready sim.Time, blk *memctl.Block) sim.Time {
	return o.ctl.WriteBlock(at, addr, ready, blk)
}

// Drain implements Backend.
func (o *Obfus) Drain(at sim.Time) { o.ctl.Drain(at) }

// Err implements Backend: a *obfus.ChannelError once the recovery
// protocol has quarantined channels.
func (o *Obfus) Err() error { return o.ctl.Err() }

// Accounting implements Backend, derived from the controller's failure
// ledger: with recovery on, every final failure is a quarantine refusal
// (FailedLegs == QuarantinedRequests) and Lost is zero; without recovery
// the difference is the silent-loss count PR 3 exists to eliminate.
func (o *Obfus) Accounting() Accounting {
	st := o.ctl.Stats()
	issued := st.RealReads + st.RealWrites
	return Accounting{
		Issued:    issued,
		Completed: issued - st.FailedLegs,
		Lost:      st.FailedLegs - st.QuarantinedRequests,
		Refused:   st.QuarantinedRequests,
	}
}

// newObfus is the construct hook shared by both registered names. RNG
// discipline matches the pre-registry system exactly: session keys are
// established first (drawing from the machine stream or running the full
// handshake), then the controller forks stream 2 for dummy addressing.
func newObfus(ctx Context) (Backend, error) {
	table := ctx.SessionKeys()
	ocfg := ctx.Obfus
	ocfg.Metrics = ctx.Metrics
	ocfg.Trace = ctx.Trace
	return &Obfus{ctl: obfus.New(ocfg, ctx.Bus, ctx.Mem, table, ctx.ForkRng(2))}, nil
}

var obfusFeatures = Features{AtRest: true, CounterFetch: FetchSelf}

func init() {
	noAuth, auth := obfus.Default(), obfus.DefaultAuth()
	Register(&Descriptor{
		Name:     "obfusmem",
		Doc:      "ObfusMem access obfuscation without bus authentication (Figure 4's middle bar)",
		Features: obfusFeatures,
		Obfus:    &noAuth,
		New:      newObfus,
	})
	Register(&Descriptor{
		Name:     "obfusmem-auth",
		Doc:      "ObfusMem plus encrypt-and-MAC authentication (the paper's full design)",
		Features: obfusFeatures,
		Obfus:    &auth,
		New:      newObfus,
	})
}
