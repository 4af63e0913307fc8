// Package obfus implements ObfusMem itself: the paper's contribution
// (Section 3). A processor-side controller encrypts every memory command,
// address, and data block with per-channel AES-CTR session keys before it
// touches the exposed bus; a memory-side controller (in the logic layer of
// the 3D/2.5D stack) decrypts them with synchronised counters. Dummy
// requests hide the request type (Observation 2) and the inter-channel
// pattern (Observation 3), and an encrypt-and-MAC scheme authenticates the
// channel (Observation 4).
package obfus

import (
	"fmt"

	"obfusmem/internal/metrics"
	"obfusmem/internal/trace"
)

// DummyDesign selects the address given to dummy requests (Section 3.3).
type DummyDesign int

// Dummy address designs.
const (
	// FixedAddress reserves one 64-byte block per memory module; dummies
	// are dropped on arrival (no PCM write, no wear). The paper's choice.
	FixedAddress DummyDesign = iota
	// OriginalAddress reuses the real request's address; preserves row
	// locality but every dummy write really writes the NVM.
	OriginalAddress
	// RandomAddress draws a uniform address; destroys locality and wears
	// random rows.
	RandomAddress
)

func (d DummyDesign) String() string {
	switch d {
	case FixedAddress:
		return "fixed"
	case OriginalAddress:
		return "original"
	case RandomAddress:
		return "random"
	default:
		return fmt.Sprintf("DummyDesign(%d)", int(d))
	}
}

// ChannelPolicy selects inter-channel obfuscation (Section 3.4).
type ChannelPolicy int

// Inter-channel policies.
const (
	// PolicyNone performs no inter-channel injection (single-channel
	// systems, or an insecure multi-channel strawman).
	PolicyNone ChannelPolicy = iota
	// PolicyUNOPT injects a dummy pair on every other channel for every
	// real request (full channel dummy replication).
	PolicyUNOPT
	// PolicyOPT injects dummies only on channels that are idle when the
	// real request issues (idle channel dummy replication).
	PolicyOPT
)

// Defined reports whether p is one of the three policies above.
// CoverNeeded treats every value other than PolicyNone and PolicyOPT as
// UNOPT, so callers that take a policy from a config reject the rest.
func (p ChannelPolicy) Defined() bool {
	return p >= PolicyNone && p <= PolicyOPT
}

func (p ChannelPolicy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyUNOPT:
		return "UNOPT"
	case PolicyOPT:
		return "OPT"
	default:
		return fmt.Sprintf("ChannelPolicy(%d)", int(p))
	}
}

// MACMode selects communication authentication (Section 3.5).
type MACMode int

// Authentication modes.
const (
	// MACNone sends no tags (plain ObfusMem).
	MACNone MACMode = iota
	// EncryptAndMAC computes H(type|address|counter) over plaintext
	// components, overlapping MAC generation with encryption and the PCM
	// access. The paper's choice.
	EncryptAndMAC
	// EncryptThenMAC computes H(M) over the encrypted message; serial, so
	// the full digest latency lands on the critical path.
	EncryptThenMAC
)

func (m MACMode) String() string {
	switch m {
	case MACNone:
		return "none"
	case EncryptAndMAC:
		return "encrypt-and-MAC"
	case EncryptThenMAC:
		return "encrypt-then-MAC"
	default:
		return fmt.Sprintf("MACMode(%d)", int(m))
	}
}

// PairOrder selects which half of the (read, write) pair carries the real
// request first on the wire (Section 3.3).
type PairOrder int

// Pair orders.
const (
	// ReadThenWrite sends the read first; reads are on the critical path,
	// so this is the paper's choice.
	ReadThenWrite PairOrder = iota
	// WriteThenRead sends the write first (ablation).
	WriteThenRead
)

func (o PairOrder) String() string {
	switch o {
	case ReadThenWrite:
		return "read-then-write"
	case WriteThenRead:
		return "write-then-read"
	default:
		return fmt.Sprintf("PairOrder(%d)", int(o))
	}
}

// Config selects the ObfusMem design point.
type Config struct {
	Dummy  DummyDesign
	Policy ChannelPolicy
	MAC    MACMode
	Order  PairOrder
	// SubstituteReal enables the split-request optimisation the paper
	// credits over same-size requests (Section 3.3): a pending real
	// request of the needed type replaces the dummy half of a pair.
	SubstituteReal bool
	// TimingOblivious enables the Section 6.2 extension the paper leaves
	// as future work: request pairs issue on a fixed epoch cadence, idle
	// epochs are filled with dummy pairs, dummies are NOT dropped at the
	// memory, and replies are padded to the worst-case access latency —
	// removing the timing side channel at a measurable cost.
	TimingOblivious bool
	// Recovery enables the fault-tolerant bus protocol: a MAC-verify
	// failure or reply timeout triggers a NACK (or retry-timer expiry), an
	// authenticated counter-resynchronisation handshake, and a bounded
	// retransmission (RetryBudget, RetryTimeout, RetryBackoff); retry
	// exhaustion quarantines the channel (fail-stop). Off, detection stops
	// at detection — a rejected request is simply reported failed,
	// matching the paper's Section 3.5.
	Recovery bool
	// Metrics, when non-nil, receives controller instruments under the
	// "obfus" scope: real/dummy traffic split, inter-channel injection,
	// idle-epoch backfill, and MAC/encrypt overlap slack. Nil disables.
	// (A pointer keeps Config comparable.)
	Metrics *metrics.Registry
	// Trace, when non-nil, records per-request crypto/front-end spans
	// (pad pre-generation, MAC generation, memory-side decode, reply
	// transit crypto) for the lifecycle tracing layer. Nil disables.
	Trace *trace.Recorder
}

// Check rejects a design knob outside its declared values. The controller
// would run an undefined DummyDesign as RandomAddress and an undefined
// PairOrder as ReadThenWrite, would panic mid-run on an undefined MACMode,
// and CoverNeeded runs an undefined ChannelPolicy as UNOPT.
func (c Config) Check() error {
	switch {
	case c.Dummy < FixedAddress || c.Dummy > RandomAddress:
		return fmt.Errorf("undefined dummy design %v", c.Dummy)
	case !c.Policy.Defined():
		return fmt.Errorf("undefined inter-channel cover policy %v", c.Policy)
	case c.MAC < MACNone || c.MAC > EncryptThenMAC:
		return fmt.Errorf("undefined MAC mode %v", c.MAC)
	case c.Order < ReadThenWrite || c.Order > WriteThenRead:
		return fmt.Errorf("undefined pair order %v", c.Order)
	}
	return nil
}

// Default is the paper's recommended design point (without auth).
func Default() Config {
	return Config{
		Dummy:          FixedAddress,
		Policy:         PolicyOPT,
		MAC:            MACNone,
		Order:          ReadThenWrite,
		SubstituteReal: true,
	}
}

// DefaultAuth is the paper's design point with communication
// authentication (the ObfusMem+Auth rows of Table 3).
func DefaultAuth() Config {
	c := Default()
	c.MAC = EncryptAndMAC
	return c
}
