package oram

import "obfusmem/internal/sim"

// PerfModel is the paper's optimistic ORAM performance model (Section 4):
// every memory access — read or write, since Path ORAM treats them
// identically — occupies the ORAM controller for a fixed 2500 ns, which
// already assumes unlimited bandwidth and unconstrained PCM write power for
// the full path read + eviction.
//
// Accesses serialise on the controller: a path read/write occupies the
// entire memory system, so memory-level parallelism collapses to one — a
// structural property of Path ORAM, not a pessimism of this model.
type PerfModel struct {
	slots []*sim.Resource
}

// PaperAccessLatency is the extrapolated fixed latency the paper assumes.
const PaperAccessLatency = 2500 * sim.Nanosecond

// PaperConcurrency bounds how many path accesses the optimistic model lets
// overlap. The paper assumes unlimited bandwidth for a single access; a
// small overlap window approximates the memory-level parallelism such a
// controller could extract before PosMap/stash serialisation binds.
const PaperConcurrency = 3

// NewPerfModel returns the paper-configured model: PaperConcurrency
// overlapping path accesses of PaperAccessLatency each.
func NewPerfModel() *PerfModel {
	p := &PerfModel{}
	for i := 0; i < PaperConcurrency; i++ {
		p.slots = append(p.slots, sim.NewResource())
	}
	return p
}

// Access schedules one ORAM access arriving at `at` and returns its
// completion time; it takes the earliest-free controller slot.
func (p *PerfModel) Access(at sim.Time) sim.Time {
	best := p.slots[0]
	for _, s := range p.slots[1:] {
		if s.FreeAt() < best.FreeAt() {
			best = s
		}
	}
	start := best.Acquire(at, PaperAccessLatency)
	return start + PaperAccessLatency
}
