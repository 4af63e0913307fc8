// Package secretflow is the golden corpus for the secretflow analyzer: each
// flagged line seeds one way a secret can shape the wire, and the unflagged
// lines pin the analyzer's negative space (declassified, suppressed, and
// genuinely clean flows stay silent).
package secretflow

import (
	"obfusmem/internal/attack"
	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

func tick() {}

// directFlow seeds the canonical violation: a plaintext address modulates an
// event timestamp.
//
//obfus:secret addr
func directFlow(eng *sim.Engine, addr uint64) {
	at := sim.Time(addr % 64)
	eng.Schedule(at, tick) // want "secret-derived value reaches Schedule"
}

// helper is an unannotated pure function; the engine's summary must carry
// its parameter through to the result.
func helper(x uint64) uint64 { return x*2 + 1 }

// interprocFlow seeds the same violation laundered through a helper call.
//
//obfus:secret addr
func interprocFlow(eng *sim.Engine, addr uint64) {
	delay := helper(addr)
	eng.Schedule(sim.Time(delay), tick) // want "secret-derived value reaches Schedule"
}

// scheduleAt sinks its parameter; callers passing secrets must be reported
// at their call site via the callee's summary.
func scheduleAt(eng *sim.Engine, t sim.Time) {
	eng.Schedule(t, tick)
}

//obfus:secret addr
func flowIntoCallee(eng *sim.Engine, addr uint64) {
	scheduleAt(eng, sim.Time(addr)) // want "flows to a wire-observable sink inside scheduleAt"
}

// guardedBranch seeds the implicit flow: no secret value reaches the wire,
// but the *choice* to emit traffic depends on one.
//
//obfus:secret addr
func guardedBranch(eng *sim.Engine, addr uint64) {
	if addr > 1024 { // want "branch on a secret-derived condition"
		eng.Schedule(100, tick)
	}
}

// packetShape seeds secret-dependent packet contents: stores into the
// wire-view fields of bus.Packet.
//
//obfus:secret data
func packetShape(p *bus.Packet, data []byte) {
	p.Data = data // want "secret-derived value stored into Data"
	p.Addr = 7    // truth metadata, not on the wire: silent
}

//obfus:secret data
func packetLiteral(data []byte) *bus.Packet {
	return &bus.Packet{
		Data: data, // want "secret-derived value stored into Data"
	}
}

// request carries an annotated secret field.
type request struct {
	addr uint64 //obfus:secret
	seq  int
}

func fieldSource(eng *sim.Engine, r request) {
	eng.Schedule(sim.Time(r.addr), tick) // want "secret-derived value reaches Schedule"
	eng.Schedule(sim.Time(r.seq), tick)  // unannotated field: silent
}

// truthAddr is a bare //obfus:secret function: its results are sources.
//
//obfus:secret
func truthAddr() uint64 { return 42 }

func sourceCall(eng *sim.Engine) {
	eng.Schedule(sim.Time(truthAddr()), tick) // want "secret-derived value reaches Schedule"
}

// groundTruth reads the attacker-hidden projection of a recorded transfer.
func groundTruth(eng *sim.Engine, tr attack.Truth) {
	eng.Schedule(sim.Time(tr.Addr), tick) // want "secret-derived value reaches Schedule"
}

// seal models a declassifier: ciphertext is safe for the wire, and the
// annotation carries the auditable reason.
//
//obfus:secret addr
//obfus:public ciphertext after AES sealing is indistinguishable from noise
func seal(addr uint64) uint64 { return addr ^ 0xdecafbad }

//obfus:secret addr
func declassified(eng *sim.Engine, addr uint64) {
	eng.Schedule(sim.Time(seal(addr)), tick) // laundered through the declassifier: silent
}

// cleanFlow pins the negative space: public values may schedule freely, and
// wire-observable results (arrival times) are public by definition.
func cleanFlow(eng *sim.Engine, b *bus.Bus, p *bus.Packet, now sim.Time) {
	arrive, _ := b.Transfer(now, p)
	eng.Schedule(arrive+5, tick)
}
