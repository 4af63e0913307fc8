package aes

import "obfusmem/internal/sim"

// Engine model parameters from the paper's 45nm synthesis of the OpenCores
// pipelined AES-128 (Section 4): 24-cycle latency at a 4ns cycle time,
// producing one 128-bit pad per cycle, 15.1 mW, 0.204 mm².
const (
	EngineCycle   = 4 * sim.Nanosecond
	EngineLatency = 24 * EngineCycle
	EnginePowerMW = 15.1
	EngineAreaMM2 = 0.204
	// PadEnergyPJ is the energy of producing one 128-bit pad, derived from
	// power × cycle time (15.1 mW × 4 ns ≈ 60.4 pJ). Section 5.2 counts
	// 128-bit pad operations; this constant converts counts to energy.
	PadEnergyPJ = EnginePowerMW * 4.0
)

// Engine is the timing/energy model of one pipelined AES unit. ObfusMem
// instantiates one per channel per side (processor and memory).
type Engine struct {
	pipe *sim.Pipeline
	ctr  *CTR
}

// NewEngineTimed builds an engine with explicit pipeline timing. The
// processor-side memory-encryption unit is clocked with the core (24
// cycles at 500 ps). Each per-channel ObfusMem engine is four interleaved
// lanes at the synthesised 4 ns cycle: the full 96 ns latency and a 1 ns
// initiation interval (obfus.New).
func NewEngineTimed(name string, c *Cipher, latency, interval sim.Time) *Engine {
	return &Engine{
		pipe: sim.NewPipeline(name, latency, interval),
		ctr:  NewCTR(c),
	}
}

// CTR exposes the functional pad generator backing the engine.
func (e *Engine) CTR() *CTR { return e.ctr }

// IssueOnly issues n pad generations starting at or after `at` and returns
// the completion time of the last one; the functional pads come from CTR().
// Because counter values are known ahead of time, callers may issue this
// *before* the data arrives (pad pre-generation), in which case the
// relevant latency is max(done, dataReady) at the XOR stage.
func (e *Engine) IssueOnly(at sim.Time, n int) sim.Time {
	return e.pipe.IssueN(at, n)
}

// Latency returns the engine's pipeline latency.
func (e *Engine) Latency() sim.Time { return e.pipe.Latency }

// Interval returns the engine's initiation interval (per-pad throughput).
func (e *Engine) Interval() sim.Time { return e.pipe.Interval }

// Pads returns the number of 128-bit pads generated so far.
func (e *Engine) Pads() uint64 { return e.pipe.Ops() }

// EnergyPJ returns the total pad-generation energy in picojoules.
func (e *Engine) EnergyPJ() float64 { return float64(e.pipe.Ops()) * PadEnergyPJ }
