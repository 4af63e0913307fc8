package aes

import "obfusmem/internal/sim"

// Engine model parameters from the paper's 45nm synthesis of the OpenCores
// pipelined AES-128 (Section 4): 24-cycle latency at a 4ns cycle time,
// producing one 128-bit pad per cycle, 15.1 mW, 0.204 mm². Its timing is a
// sim.Pipeline with these parameters, one per engine.
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
