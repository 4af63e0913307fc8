// Package leakage is the quantitative side of the repo's security story:
// an inference-and-scoring framework layered on the passive bus observer
// (internal/attack) that turns "what can the adversary see" into measured
// numbers per protection backend.
//
// Three quantities are reported, chosen to match what the ORAM
// definitional literature says obliviousness must bound and what the
// off-chip membus attack actually recovers in practice:
//
//   - Mutual information (bits/request) between the issued request stream
//     and the observed wire trace, over discretized channel/timing/size
//     features. Estimated with the plug-in estimator and the Miller–Madow
//     bias correction from internal/stats; the corrected figure is the
//     headline because unique ciphertexts otherwise inflate plug-in MI.
//   - Address-recovery accuracy of a membus-style pipeline
//     (channel-occupancy fingerprinting, inter-arrival clustering,
//     sequential-stride inference), scored at row granularity against the
//     true request schedule.
//   - Workload-identification classifier advantage: nearest-centroid over
//     per-trace feature vectors, leave-one-seed-out, reported as accuracy
//     minus chance.
//
// The package observes a strict wire-only discipline: inference code
// consumes attack.Wire projections only, never ground truth. Scoring code
// (score.go, and requestSymbol in features.go) touches the issued request
// stream or plants the attacker's known-plaintext anchors. An inference
// stage that read ground truth would recover ObfusMem's addresses, which
// the recovery cap in exp's TestLeakageOrdering fails.
package leakage

import (
	"obfusmem/internal/chunklog"
	"obfusmem/internal/cpu"
	"obfusmem/internal/sim"
)

// RowBytes is the row granularity the recovery pipeline scores at,
// matching the workload generator's 1 KB locality row: recovering the row
// is what leaks spatial pattern; the 64 B block within it is noise even to
// a perfect plaintext parser aligned against a randomized-within-row
// generator.
const RowBytes = 1024

// Issued is one entry of the true request schedule, recorded by a Probe.
// It is scoring data: the defender-side ground truth the adversary's
// inferences are judged against.
type Issued struct {
	At    sim.Time
	Addr  uint64
	Write bool
}

// Probe wraps a memory system and records the issued request stream while
// forwarding every call unchanged. It is the leakage experiments' tap on
// the defender side of the wire, mirroring how the attack.Observer taps
// the adversary side. The schedule sits in a chunked log, so a long run
// allocates its entries once, never a grown copy.
type Probe struct {
	sys    cpu.MemorySystem
	issued chunklog.Log[Issued]
}

// NewProbe wraps sys.
func NewProbe(sys cpu.MemorySystem) *Probe { return &Probe{sys: sys} }

// Read implements cpu.MemorySystem.
func (p *Probe) Read(at sim.Time, addr uint64) sim.Time {
	p.issued.Append(Issued{At: at, Addr: addr})
	return p.sys.Read(at, addr)
}

// Write implements cpu.MemorySystem.
func (p *Probe) Write(at sim.Time, addr uint64) sim.Time {
	p.issued.Append(Issued{At: at, Addr: addr, Write: true})
	return p.sys.Write(at, addr)
}

// Drain implements cpu.MemorySystem.
func (p *Probe) Drain(at sim.Time) { p.sys.Drain(at) }

// Issued returns the recorded request schedule in issue order, as a new
// slice of exactly its length.
func (p *Probe) Issued() []Issued {
	out := make([]Issued, 0, p.issued.Len())
	for c := range p.issued.Chunks() {
		out = append(out, p.issued.Chunk(c)...)
	}
	return out
}
