package attack

import (
	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

// Wire is the attacker-visible projection of one bus transfer: exactly the
// fields an adversary tapping the exposed interconnect can read. Inference
// code (internal/leakage and this package's attacks) must consume traces
// through this type only; exp's TestLeakageOrdering caps ObfusMem's address
// recovery, which an inference stage reading ground truth would break.
//
// Plaintext is included deliberately: under Kerckhoffs's principle the
// attacker knows which scheme is deployed, and on an unprotected bus the
// command field's structure is self-evident from the traffic itself.
type Wire struct {
	At        sim.Time
	Channel   int
	Dir       bus.Direction
	Cmd       [bus.CmdBytes]byte
	HasCmd    bool
	Size      int // total wire bytes of the transfer
	Plaintext bool
}

// Truth is the ground-truth projection of the same transfer, exposed only
// so scoring code can judge what an inference pipeline recovered. It must
// never feed the inference itself.
type Truth struct {
	Type  bus.ReqType
	Addr  uint64
	Dummy bool
}

// WireTrace returns the attacker-visible view of every recorded transfer,
// in observation order.
func (o *Observer) WireTrace() []Wire {
	out := make([]Wire, 0, o.records.Len())
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			out = append(out, Wire{
				At:        r.at,
				Channel:   int(r.channel),
				Dir:       r.direction(),
				Cmd:       r.cmd,
				HasCmd:    r.hasCmd,
				Size:      int(r.size),
				Plaintext: r.plaintext,
			})
		}
	}
	return out
}

// TruthTrace returns the ground-truth view parallel to WireTrace: entry i
// describes the same transfer as WireTrace()[i]. For scoring only.
func (o *Observer) TruthTrace() []Truth {
	out := make([]Truth, 0, o.records.Len())
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			out = append(out, Truth{Type: r.truthType, Addr: r.truthAddr, Dummy: r.truthDummy})
		}
	}
	return out
}
