package backend

import (
	"obfusmem/internal/bus"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
)

// Plain is the unobfuscated bus datapath shared by the unprotected and
// encrypt-only machines: one plaintext command packet per request, a data
// reply for reads, no dummies, no MACs, no recovery. It models the DDR-like
// bus of the paper's baselines — which also means an injected fault simply
// loses the request, like a DDR bus without CRC-retry would. Unlike the
// pre-registry system code, loss is counted (Accounting.Lost and the
// fault.lost_requests metric), not silently swallowed into the latency
// distribution.
type Plain struct {
	bus  *bus.Bus
	mem  *memctl.Controller
	seq  uint64
	acct Accounting
	lost *metrics.Counter
	// req and reply are rebuilt on every transfer: every interception
	// point on the bus copies rather than retains a packet, so one of
	// each suffices. zeroData is the shared payload (contents elided);
	// fault injection and tampering corrupt copies, never it.
	req, reply bus.Packet
	zeroData   [bus.DataBytes]byte
}

// NewPlain builds the baseline datapath. Exported for the conformance
// suite; machines are normally assembled through the registry.
func NewPlain(ctx Context) *Plain {
	return &Plain{
		bus:  ctx.Bus,
		mem:  ctx.Mem,
		lost: ctx.Metrics.Scope(names.ScopeFault).Counter(names.FaultLostRequests),
	}
}

// transfer moves one unencrypted request over the bus and accesses PCM; it
// returns data-ready (reads) or retirement (writes) time. Timing is
// bit-identical to the pre-registry system.plainTransfer; the only
// addition is the loss ledger.
func (p *Plain) transfer(at sim.Time, addr uint64, write bool) sim.Time {
	p.acct.Issued++
	ch := p.mem.Mapper().ChannelOf(addr)
	t := bus.Read
	if write {
		t = bus.Write
	}
	var cmd [bus.CmdBytes]byte
	cmd[0] = byte(t)
	for i := 0; i < 8; i++ {
		cmd[1+i] = byte(addr >> (56 - 8*uint(i)))
	}
	pkt := &p.req
	*pkt = bus.Packet{
		Channel: ch, Dir: bus.ProcToMem, CmdCipher: cmd, HasCmd: true,
		Type: t, Addr: addr, Plaintext: true, Seq: p.seq,
	}
	p.seq++
	if write {
		pkt.Data = p.zeroData[:]
	}
	arrive, delivered := p.bus.Transfer(at, pkt)
	if delivered == nil {
		p.acct.Lost++
		p.lost.Inc()
		return arrive
	}
	done := p.mem.Access(arrive, addr, write)
	if write {
		p.acct.Completed++
		return done
	}
	reply := &p.reply
	*reply = bus.Packet{
		Channel: ch, Dir: bus.MemToProc, Data: p.zeroData[:],
		Type: bus.Read, Addr: addr, Plaintext: true,
	}
	replyArrive, replyDelivered := p.bus.Transfer(done, reply)
	if replyDelivered == nil {
		// The access reached memory but the data never reached the
		// requester: lost from the processor's point of view.
		p.acct.Lost++
		p.lost.Inc()
		return replyArrive
	}
	p.acct.Completed++
	return replyArrive
}

// Read implements Backend.
func (p *Plain) Read(at sim.Time, addr uint64, blk *memctl.Block) (sim.Time, bool) {
	done := p.transfer(at, addr, false)
	if blk != nil {
		*blk = p.mem.LoadBlock(addr)
	}
	return done, true
}

// Write implements Backend. ready folds in at-rest encryption time when
// the machine has an engine (== at on the unprotected baseline).
func (p *Plain) Write(at sim.Time, addr uint64, ready sim.Time, blk *memctl.Block) sim.Time {
	if blk != nil {
		p.mem.StoreBlock(addr, *blk)
	}
	return p.transfer(ready, addr, true)
}

// Drain implements Backend (nothing buffered).
func (p *Plain) Drain(sim.Time) {}

// Err implements Backend (the baseline has no fail-stop state).
func (p *Plain) Err() error { return nil }

// Accounting implements Backend.
func (p *Plain) Accounting() Accounting { return p.acct }

func init() {
	Register(&Descriptor{
		Name: "unprotected",
		Doc:  "plaintext commands, addresses, and data on the bus (Table 3 baseline)",
		New:  func(ctx Context) (Backend, error) { return NewPlain(ctx), nil },
	})
	Register(&Descriptor{
		Name:     "encrypt-only",
		Doc:      "counter-mode memory encryption over the plain bus (Figure 4's first step)",
		Features: Features{AtRest: true, CounterFetch: FetchSelf},
		New:      func(ctx Context) (Backend, error) { return NewPlain(ctx), nil },
	})
}
