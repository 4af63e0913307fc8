// Package workload synthesises the memory behaviour of the fifteen SPEC
// CPU2006 benchmarks the paper evaluates, calibrated to Table 1 (IPC, LLC
// MPKI, and mean gap between consecutive memory requests).
//
// Substitution note (see DESIGN.md): we cannot run SPEC binaries, but the
// paper's results depend only on the statistics of the post-LLC request
// stream — its rate, read/write mix, and spatial locality. Each profile
// generates a stream whose measured Table 1 statistics match the paper's;
// everything downstream (bus, crypto, PCM, ORAM) then behaves as it would
// under the real workload.
package workload

import (
	"fmt"

	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// Profile describes one benchmark's memory behaviour.
type Profile struct {
	Name string
	// Published Table 1 characteristics.
	IPC   float64 // instructions per cycle at 2 GHz
	MPKI  float64 // LLC misses (demand reads) per kilo-instruction
	GapNS float64 // mean gap between consecutive memory requests

	// Derived / assigned behavioural parameters.
	ReadFrac    float64 // demand reads / all memory requests
	RowLocality float64 // probability the next request stays in the open row
	FootprintMB int     // resident working set
}

// CPUFreqGHz is the core clock of Table 2 in GHz, derived from its period
// sim.CPUCycle (exactly 2.0).
const CPUFreqGHz = float64(sim.Nanosecond) / float64(sim.CPUCycle)

// DefaultExposure is the calibrated fraction of demand-read latency that
// reaches execution time (the rest is hidden by out-of-order overlap). It
// is cpu.DefaultConfig's exposure (so obfsim's -exposure default) and the
// discount BaselineStallNS takes out of the Table 1 gap.
const DefaultExposure = 0.55

// nsPerKiloInstr returns the baseline compute time of 1000 instructions.
func (p Profile) nsPerKiloInstr() float64 { return 1000 / p.IPC / CPUFreqGHz }

// RequestsPerKI returns total memory requests (reads + writebacks) per
// kilo-instruction, from Table 1's self-consistency: time-per-KI / gap.
func (p Profile) RequestsPerKI() float64 { return p.nsPerKiloInstr() / p.GapNS }

// WritebacksPerKI returns LLC writebacks per kilo-instruction.
func (p Profile) WritebacksPerKI() float64 {
	wb := p.RequestsPerKI() - p.MPKI
	if wb < 0 {
		return 0
	}
	return wb
}

// derive fills ReadFrac from the Table 1 consistency relation.
func (p Profile) derive() Profile {
	total := p.RequestsPerKI()
	if total < p.MPKI {
		total = p.MPKI
	}
	p.ReadFrac = p.MPKI / total
	return p
}

// SPEC2006 returns the fifteen profiles of Table 1. Row locality and
// footprints are assigned from the benchmarks' published characters
// (streaming stencil codes high locality, pointer-chasing codes low).
func SPEC2006() []Profile {
	raw := []Profile{
		{Name: "bwaves", IPC: 0.59, MPKI: 18.23, GapNS: 44.32, RowLocality: 0.65, FootprintMB: 800},
		{Name: "mcf", IPC: 0.17, MPKI: 24.82, GapNS: 74.95, RowLocality: 0.15, FootprintMB: 1700},
		{Name: "lbm", IPC: 0.35, MPKI: 6.94, GapNS: 67.97, RowLocality: 0.70, FootprintMB: 400},
		{Name: "zeus", IPC: 0.53, MPKI: 4.81, GapNS: 63.56, RowLocality: 0.55, FootprintMB: 500},
		{Name: "milc", IPC: 0.42, MPKI: 15.56, GapNS: 51.54, RowLocality: 0.35, FootprintMB: 680},
		{Name: "xalan", IPC: 0.52, MPKI: 0.97, GapNS: 945.62, RowLocality: 0.25, FootprintMB: 420},
		{Name: "omnetpp", IPC: 4.30, MPKI: 0.10, GapNS: 1104.74, RowLocality: 0.20, FootprintMB: 170},
		{Name: "soplex", IPC: 0.25, MPKI: 23.11, GapNS: 69.06, RowLocality: 0.40, FootprintMB: 850},
		{Name: "libquantum", IPC: 0.33, MPKI: 5.56, GapNS: 146.82, RowLocality: 0.85, FootprintMB: 100},
		{Name: "sjeng", IPC: 0.95, MPKI: 0.36, GapNS: 1382.13, RowLocality: 0.20, FootprintMB: 180},
		{Name: "leslie3d", IPC: 0.49, MPKI: 9.85, GapNS: 58.91, RowLocality: 0.60, FootprintMB: 130},
		{Name: "astar", IPC: 0.70, MPKI: 0.13, GapNS: 5660.18, RowLocality: 0.30, FootprintMB: 330},
		{Name: "hmmer", IPC: 1.39, MPKI: 0.02, GapNS: 2687.60, RowLocality: 0.50, FootprintMB: 60},
		{Name: "cactus", IPC: 1.05, MPKI: 1.91, GapNS: 128.09, RowLocality: 0.55, FootprintMB: 650},
		{Name: "gems", IPC: 0.40, MPKI: 11.66, GapNS: 66.25, RowLocality: 0.45, FootprintMB: 800},
	}
	out := make([]Profile, len(raw))
	for i, p := range raw {
		out[i] = p.derive()
	}
	return out
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range SPEC2006() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Request is one post-LLC memory request.
type Request struct {
	// Gap is the compute time separating this request from the previous
	// one (stalls are added by the CPU model on top).
	Gap   sim.Time
	Addr  uint64
	Write bool
}

// Stream generates the request sequence for a profile.
type Stream struct {
	p        Profile
	rng      *xrand.Rand
	lastAddr uint64
	// gapMean is the compute-gap mean, discounted for the stall component
	// already contained in the measured Table 1 gap.
	gapMean   float64
	rowBytes  uint64
	footprint uint64
	// jump draws the block stride of a jump out of the open row.
	jump xrand.Pareto
}

// Baseline stall model: the measured Table 1 gap on the unprotected
// machine already embeds the exposed part of each demand read's latency,
// so the generator discounts it from the compute gap. The expected read
// latency depends on the profile's row locality (hits ~25 ns end to end,
// misses ~85 ns with the Table 2 PCM timings) and the exposure is
// DefaultExposure.
const (
	rowHitLatencyNS  = 25.0
	rowMissLatencyNS = 85.0
)

// BaselineStallNS returns the expected per-request stall on the
// unprotected machine.
func (p Profile) BaselineStallNS() float64 {
	expLat := p.RowLocality*rowHitLatencyNS + (1-p.RowLocality)*rowMissLatencyNS
	return DefaultExposure * expLat * p.ReadFrac
}

// NewStream builds a generator.
func NewStream(p Profile, seed uint64) *Stream {
	gap := p.GapNS - p.BaselineStallNS()
	if gap < 2 {
		gap = 2
	}
	fp := uint64(p.FootprintMB) << 20
	if fp == 0 {
		fp = 64 << 20
	}
	s := &Stream{
		p:         p,
		rng:       xrand.New(seed ^ xrand.Mix64(uint64(len(p.Name))+uint64(p.FootprintMB))),
		gapMean:   gap,
		rowBytes:  1024,
		footprint: fp,
	}
	s.jump = xrand.NewPareto(1.1, float64(s.rowBytes/64), float64(s.footprint/64))
	s.lastAddr = (s.rng.Uint64() % s.footprint) &^ 63
	return s
}

// Profile returns the generating profile.
func (s *Stream) Profile() Profile { return s.p }

// Next produces the next request.
func (s *Stream) Next() Request {
	gap := sim.Nanos(s.rng.Exp(s.gapMean))
	var addr uint64
	if s.rng.Prob(s.p.RowLocality) {
		// Stay in the open row: step to a neighbouring block.
		rowBase := s.lastAddr &^ (s.rowBytes - 1)
		addr = rowBase + uint64(s.rng.Intn(int(s.rowBytes/64)))*64
	} else {
		// Jump: heavy-tailed stride within the footprint, at least one
		// row away so jumps genuinely leave the open row.
		stride := uint64(s.jump.Draw(s.rng)) * 64
		if s.rng.Bool() && stride < s.lastAddr {
			addr = s.lastAddr - stride
		} else {
			addr = (s.lastAddr + stride) % s.footprint
		}
		addr &^= 63
	}
	s.lastAddr = addr
	return Request{
		Gap:   gap,
		Addr:  addr,
		Write: !s.rng.Prob(s.p.ReadFrac),
	}
}
