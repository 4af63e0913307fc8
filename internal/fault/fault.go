// Package fault models non-adversarial transient faults on the exposed
// processor-memory interconnect: the electrical bit flips, lost packets,
// and momentary channel stalls that DDR4/DDR5 buses already ship
// CRC-with-retry hardware for. Unlike the attack package — whose Tamperer
// is an adversary choosing *which* packets to corrupt — the fault injector
// is a memoryless Bernoulli process per packet, seeded for exact
// reproducibility. It plugs into bus.(*Bus).SetFaultInjector, so faults
// strike the final wire signal after any attacker has acted.
package fault

import (
	"fmt"

	"obfusmem/internal/bus"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// Config sets the per-packet fault probabilities. The zero value injects
// nothing (and the injector then takes a fast path with no RNG draws, so a
// zero-rate injector is safe to leave installed).
type Config struct {
	// LossProb drops the whole packet (it never arrives; the receiver
	// learns of it only by timeout).
	LossProb float64
	// CmdFlipProb flips one random bit of the 16-byte command field of
	// command-carrying packets.
	CmdFlipProb float64
	// DataFlipProb flips one random bit of the data payload.
	DataFlipProb float64
	// MACFlipProb flips one random bit of the MAC field of tagged packets.
	MACFlipProb float64
	// StallProb delays delivery by a uniform random time in (0, StallMax]
	// — a transient channel stall (retraining, glitch recovery). The link
	// occupancy is unchanged; only the arrival is late.
	StallProb float64
	// Seed makes the injection sequence reproducible; each channel forks an
	// independent stream so per-channel sequences do not depend on how
	// traffic interleaves across channels.
	Seed uint64
}

// StallMax bounds the duration of an injected stall.
const StallMax = 50 * sim.Nanosecond

// active reports whether any fault can ever fire.
func (c Config) active() bool {
	return c.LossProb > 0 || c.CmdFlipProb > 0 || c.DataFlipProb > 0 ||
		c.MACFlipProb > 0 || c.StallProb > 0
}

// Uniform returns a config with every fault class at the same per-packet
// rate (the sweep axis of the -exp faults experiment).
func Uniform(rate float64, seed uint64) Config {
	return Config{
		LossProb:     rate,
		CmdFlipProb:  rate,
		DataFlipProb: rate,
		MACFlipProb:  rate,
		StallProb:    rate,
		Seed:         seed,
	}
}

// Stats counts injected faults (per channel or aggregated).
type Stats struct {
	Packets   uint64 // packets offered to the injector
	Losses    uint64
	CmdFlips  uint64
	DataFlips uint64
	MACFlips  uint64
	Stalls    uint64
	StallPS   uint64 // total injected stall time
}

// add accumulates s2 into s.
func (s *Stats) add(s2 Stats) {
	s.Packets += s2.Packets
	s.Losses += s2.Losses
	s.CmdFlips += s2.CmdFlips
	s.DataFlips += s2.DataFlips
	s.MACFlips += s2.MACFlips
	s.Stalls += s2.Stalls
	s.StallPS += s2.StallPS
}

// Faults returns the number of faulted packets' fault events (a packet can
// suffer several flips plus a stall; each counts once here).
func (s Stats) Faults() uint64 {
	return s.Losses + s.CmdFlips + s.DataFlips + s.MACFlips + s.Stalls
}

// faultMetrics is the injector's observability instrument set; the zero
// value is the disabled state.
type faultMetrics struct {
	losses    *metrics.Counter
	cmdFlips  *metrics.Counter
	dataFlips *metrics.Counter
	macFlips  *metrics.Counter
	stalls    *metrics.Counter
	stallPS   *metrics.Counter
}

// Injector implements bus.FaultInjector. Not safe for concurrent use (the
// bus is single-threaded per machine, like everything else in the model).
type Injector struct {
	cfg     Config
	rngs    []*xrand.Rand
	perChan []Stats
	met     faultMetrics
}

// New builds an injector for a bus with the given channel count. reg may be
// nil (metrics off).
func New(cfg Config, channels int, reg *metrics.Registry) *Injector {
	if channels <= 0 {
		panic("fault: need at least one channel")
	}
	in := &Injector{
		cfg:     cfg,
		rngs:    make([]*xrand.Rand, channels),
		perChan: make([]Stats, channels),
	}
	root := xrand.New(cfg.Seed ^ 0xfa17)
	for ch := range in.rngs {
		in.rngs[ch] = root.Fork(uint64(ch))
	}
	if sc := reg.Scope(names.ScopeFault); sc != nil {
		in.met = faultMetrics{
			losses:    sc.Counter(names.FaultLosses),
			cmdFlips:  sc.Counter(names.FaultCmdFlips),
			dataFlips: sc.Counter(names.FaultDataFlips),
			macFlips:  sc.Counter(names.FaultMACFlips),
			stalls:    sc.Counter(names.FaultStalls),
			stallPS:   sc.Counter(names.FaultStallPS),
		}
	}
	return in
}

// Config returns the injection rates.
func (in *Injector) Config() Config { return in.cfg }

// Inject implements bus.FaultInjector: it returns the packet as it leaves
// the faulty link (nil when lost; a copy when corrupted — the sender's
// packet is never mutated) plus any extra delivery delay from a transient
// stall.
func (in *Injector) Inject(at sim.Time, p *bus.Packet) (*bus.Packet, sim.Time) {
	if in == nil || !in.cfg.active() {
		return p, 0
	}
	r := in.rngs[p.Channel]
	st := &in.perChan[p.Channel]
	st.Packets++
	if in.cfg.LossProb > 0 && r.Prob(in.cfg.LossProb) {
		st.Losses++
		in.met.losses.Inc()
		return nil, 0
	}
	out := p
	// corrupt returns a private copy of the packet, made at most once; the
	// Data backing array is copied too so a flip cannot reach the sender.
	corrupt := func() *bus.Packet {
		if out == p {
			cp := *p
			if len(p.Data) > 0 {
				cp.Data = append([]byte(nil), p.Data...)
			}
			out = &cp
		}
		return out
	}
	if p.HasCmd && in.cfg.CmdFlipProb > 0 && r.Prob(in.cfg.CmdFlipProb) {
		o := corrupt()
		o.CmdCipher[r.Intn(bus.CmdBytes)] ^= 1 << uint(r.Intn(8))
		st.CmdFlips++
		in.met.cmdFlips.Inc()
	}
	if len(p.Data) > 0 && in.cfg.DataFlipProb > 0 && r.Prob(in.cfg.DataFlipProb) {
		o := corrupt()
		o.Data[r.Intn(len(o.Data))] ^= 1 << uint(r.Intn(8))
		st.DataFlips++
		in.met.dataFlips.Inc()
	}
	if p.HasMAC && in.cfg.MACFlipProb > 0 && r.Prob(in.cfg.MACFlipProb) {
		o := corrupt()
		o.MAC ^= 1 << uint(r.Intn(64))
		st.MACFlips++
		in.met.macFlips.Inc()
	}
	var stall sim.Time
	if in.cfg.StallProb > 0 && r.Prob(in.cfg.StallProb) {
		stall = 1 + sim.Time(r.Uint64n(uint64(StallMax)))
		st.Stalls++
		st.StallPS += uint64(stall)
		in.met.stalls.Inc()
		in.met.stallPS.Add(uint64(stall))
	}
	return out, stall
}

// Stats returns fault counts aggregated over all channels.
func (in *Injector) Stats() Stats {
	var s Stats
	for i := range in.perChan {
		s.add(in.perChan[i])
	}
	return s
}

// ChannelStats returns a copy of one channel's counts.
func (in *Injector) ChannelStats(ch int) Stats {
	if ch < 0 || ch >= len(in.perChan) {
		panic(fmt.Sprintf("fault: channel %d of %d", ch, len(in.perChan)))
	}
	return in.perChan[ch]
}
