package md5sim

import (
	"encoding/binary"

	"obfusmem/internal/sim"
)

// Hardware model parameters from the paper's synthesis of the OpenCores
// 64-stage pipelined MD5 (Section 4: 12.5 mW, 0.214 mm²). With one MD5
// round per pipeline stage the per-stage critical path is a handful of
// adders and a rotate, so the unit clocks well above the AES datapath; we
// model a 1 ns stage, giving a 64 ns digest latency — short enough that,
// as Observation 4 requires, MAC generation overlaps request encryption
// and the PCM array access. A unit's timing is a sim.Pipeline with these
// parameters.
const (
	UnitCycle   = 1 * sim.Nanosecond
	UnitStages  = 64
	UnitLatency = UnitStages * UnitCycle
	UnitPowerMW = 12.5
	UnitAreaMM2 = 0.214
	// MACEnergyPJ is the energy of one digest: power × pipeline occupancy
	// of one cycle (12.5 mW × 1 ns = 12.5 pJ per issued message).
	MACEnergyPJ = UnitPowerMW * 1.0
)

// MAC is a truncated digest carried on the bus next to an encrypted request.
// 64 bits is ample for an attacker who cannot see the MAC input (the
// plaintext components are secret), per Section 3.5's "lightweight MAC"
// argument.
type MAC uint64

// Compute builds the encrypt-and-MAC tag β = H(type | address | counter)
// over the *plaintext* components of a request (Section 3.5).
func Compute(reqType byte, addr uint64, counter uint64) MAC {
	var buf [17]byte
	buf[0] = reqType
	binary.BigEndian.PutUint64(buf[1:9], addr)
	binary.BigEndian.PutUint64(buf[9:17], counter)
	d := Digest(buf[:])
	return MAC(binary.BigEndian.Uint64(d[:8]))
}

// ComputeOverMessage builds the encrypt-then-MAC tag α = H(M) over an
// already-encrypted message, the slower alternative the paper rejects.
func ComputeOverMessage(msg []byte) MAC {
	d := Digest(msg)
	return MAC(binary.BigEndian.Uint64(d[:8]))
}
