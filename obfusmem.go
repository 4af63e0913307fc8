// Package obfusmem is a from-scratch reproduction of "ObfusMem: A
// Low-Overhead Access Obfuscation for Trusted Memories" (Awad, Wang,
// Shands, Solihin — ISCA 2017).
//
// It provides:
//
//   - a complete simulated machine (a closed-loop core model driven by
//     each workload's post-LLC request stream → memory bus → PCM main
//     memory) under each registered protection scheme: unprotected,
//     counter-mode memory encryption, ObfusMem with and without bus
//     authentication (the paper's contribution, in all its design
//     variants), a Path ORAM baseline (both a functional implementation
//     and the paper's fixed-latency performance model), and Palermo;
//   - the trust architecture of Section 3.1 (manufacturer-certified
//     component keys, integrator key burning, attestation, Diffie-Hellman
//     session establishment);
//   - attacker models (passive bus observers, active tamperers) used by
//     the security analysis; and
//   - in cmd/obfsim, an experiment harness that regenerates every table
//     and figure of the paper's evaluation.
//
// Quick start:
//
//	m, _ := obfusmem.NewMachine(obfusmem.MachineConfig{Protection: obfusmem.ProtectionObfusMemAuth})
//	res, _ := m.RunBenchmark("mcf", 10000)
//	fmt.Printf("mcf ran %v simulated, IPC %.2f\n", res.ExecTime, res.IPC)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package obfusmem

import (
	"fmt"
	"io"

	"obfusmem/internal/attack"
	"obfusmem/internal/cpu"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// Protection selects the machine's protection scheme by its registered
// backend name — the same names obfsim, replay and campaign manifests
// take. The zero value selects ProtectionNone.
type Protection string

// Protection schemes, in increasing order of security.
const (
	// ProtectionNone is the unprotected baseline: plaintext commands,
	// addresses, and data on the memory bus.
	ProtectionNone Protection = "unprotected"
	// ProtectionEncrypt adds counter-mode memory encryption (data at rest
	// and in transit is ciphertext; addresses and commands are plain).
	ProtectionEncrypt Protection = "encrypt-only"
	// ProtectionObfusMem adds ObfusMem access-pattern obfuscation on top
	// of memory encryption (no bus authentication).
	ProtectionObfusMem Protection = "obfusmem"
	// ProtectionObfusMemAuth is ObfusMem plus encrypt-and-MAC
	// communication authentication — the paper's full design.
	ProtectionObfusMemAuth Protection = "obfusmem-auth"
	// ProtectionORAM replaces ObfusMem with the paper's optimistic Path
	// ORAM performance model.
	ProtectionORAM Protection = "oram"
	// ProtectionPalermo replaces ObfusMem with the Palermo
	// protocol/hardware co-designed oblivious memory (arXiv 2411.05400):
	// batched oblivious accesses with cover-block path reads and deferred
	// eviction writebacks.
	ProtectionPalermo Protection = "palermo"
)

// Re-exported ObfusMem design knobs (see the paper's Section 3).
type (
	// DummyDesign selects dummy-request addressing (Section 3.3).
	DummyDesign = obfus.DummyDesign
	// ChannelPolicy selects inter-channel obfuscation (Section 3.4).
	ChannelPolicy = obfus.ChannelPolicy
	// MACMode selects communication authentication (Section 3.5).
	MACMode = obfus.MACMode
	// PairOrder selects which half of a request pair leads (Section 3.3).
	PairOrder = obfus.PairOrder
)

// Re-exported design-knob values.
const (
	FixedAddress    = obfus.FixedAddress
	OriginalAddress = obfus.OriginalAddress
	RandomAddress   = obfus.RandomAddress

	PolicyNone  = obfus.PolicyNone
	PolicyUNOPT = obfus.PolicyUNOPT
	PolicyOPT   = obfus.PolicyOPT

	MACNone        = obfus.MACNone
	EncryptAndMAC  = obfus.EncryptAndMAC
	EncryptThenMAC = obfus.EncryptThenMAC

	ReadThenWrite = obfus.ReadThenWrite
	WriteThenRead = obfus.WriteThenRead
)

// Time re-exports the simulator timestamp (picoseconds).
type Time = sim.Time

// MachineConfig describes a machine to build.
type MachineConfig struct {
	Protection Protection
	// Channels is the memory channel count (1, 2, 4, or 8; default 1).
	Channels int
	// Dummy, Policy, Order tune ObfusMem (ignored otherwise). Zero values
	// are the paper's choices (fixed-address dummies; OPT applies only
	// with >1 channel).
	Dummy  DummyDesign
	Policy ChannelPolicy
	Order  PairOrder
	// MAC overrides the authentication mode (ablation use); zero value
	// defers to the Protection level (ObfusMemAuth => encrypt-and-MAC).
	MAC MACMode
	// TimingOblivious enables the Section 6.2 extension: fixed-cadence
	// request issue, undropped dummies, and worst-case reply padding,
	// closing the timing side channel at a measurable cost.
	TimingOblivious bool
	Seed            uint64
}

// Result is the outcome of a benchmark run.
type Result = cpu.Result

// Machine is an assembled simulated system.
type Machine struct {
	sys  *system.System
	cfg  MachineConfig
	core cpu.Config
}

// NewMachine builds a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if cfg.Channels < 1 || cfg.Channels > 8 || cfg.Channels&(cfg.Channels-1) != 0 {
		return nil, fmt.Errorf("obfusmem: channels must be 1, 2, 4, or 8 (got %d)", cfg.Channels)
	}
	if cfg.Protection == "" {
		cfg.Protection = ProtectionNone
	}
	sc, err := system.DefaultConfigByName(string(cfg.Protection))
	if err != nil {
		return nil, fmt.Errorf("obfusmem: %w", err)
	}
	sc.Channels = cfg.Channels
	sc.Seed = cfg.Seed
	if cfg.Protection == ProtectionObfusMem || cfg.Protection == ProtectionObfusMemAuth {
		oc := &sc.Obfus
		oc.Dummy = cfg.Dummy
		oc.Order = cfg.Order
		oc.TimingOblivious = cfg.TimingOblivious
		if cfg.Policy != obfus.PolicyNone {
			oc.Policy = cfg.Policy
		}
		if cfg.MAC != obfus.MACNone {
			oc.MAC = cfg.MAC
		}
	}
	sys, err := system.NewChecked(sc)
	if err != nil {
		return nil, fmt.Errorf("obfusmem: %w", err)
	}
	return &Machine{sys: sys, cfg: cfg, core: cpu.DefaultConfig()}, nil
}

// RunBenchmark drives the named Table 1 workload for n memory requests and
// returns execution statistics.
func (m *Machine) RunBenchmark(name string, n int) (Result, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return Result{}, err
	}
	if n <= 0 {
		return Result{}, fmt.Errorf("obfusmem: request count must be positive")
	}
	return cpu.Run(p, n, m.sys, m.core, m.cfg.Seed+1), nil
}

// TraceRequest is one post-LLC memory request in a recorded trace.
type TraceRequest = workload.Request

// ReadTrace parses the CSV trace format of cmd/tracegen.
func ReadTrace(r io.Reader) ([]TraceRequest, error) { return workload.ReadTrace(r) }

// ReplayTrace drives a recorded request sequence through this machine.
func (m *Machine) ReplayTrace(name string, reqs []TraceRequest) Result {
	return cpu.RunTrace(name, reqs, m.sys, m.core)
}

// Read issues a single demand read at simulated time `at`, returning the
// data-ready time. Useful for custom traffic instead of RunBenchmark.
func (m *Machine) Read(at Time, addr uint64) Time { return m.sys.Read(at, addr) }

// Write posts a single writeback at simulated time `at`.
func (m *Machine) Write(at Time, addr uint64) Time { return m.sys.Write(at, addr) }

// Drain flushes buffered state (pending write pairs, open PCM rows).
func (m *Machine) Drain(at Time) { m.sys.Drain(at) }

// Block is a 64-byte memory line for the value-carrying datapath.
type Block = system.Block

// WriteBlock writes real bytes through the machine's full datapath:
// counter-mode at-rest encryption, transit encryption on the bus (under
// ObfusMem), functional storage in the memory module, and a Merkle-tree
// update. Returns the write's retirement time.
func (m *Machine) WriteBlock(at Time, addr uint64, data Block) Time {
	return m.sys.WriteData(at, addr, data)
}

// ReadBlock reads bytes back through the full datapath. verified is false
// if integrity verification failed — including the Observation 4 case
// where in-flight data corruption sailed past the bus MAC and is caught by
// the Merkle tree on this read.
func (m *Machine) ReadBlock(at Time, addr uint64) (data Block, done Time, verified bool) {
	return m.sys.ReadData(at, addr)
}

// Observer is a passive bus attacker (re-export of the attack model).
type Observer = attack.Observer

// AttachObserver taps the machine's memory bus with a passive attacker
// retaining up to limit packets (its Dropped counts the packets past the
// limit), and returns it for later analysis.
func (m *Machine) AttachObserver(limit int) *Observer {
	o := attack.NewObserver(m.cfg.Channels, limit)
	m.sys.Bus().AttachObserver(o)
	return o
}

// TamperKind re-exports the active-attack menu.
type TamperKind = attack.TamperKind

// Active attacks (Section 3.5 scenarios).
const (
	TamperModify = attack.TamperModify
	TamperDrop   = attack.TamperDrop
	TamperReplay = attack.TamperReplay
	TamperMAC    = attack.TamperMAC
	TamperData   = attack.TamperData
)

// Tamperer is an active in-flight attacker.
type Tamperer = attack.Tamperer

// AttachTamperer installs an active attacker on the bus that attacks every
// Nth eligible packet, and returns it.
func (m *Machine) AttachTamperer(kind TamperKind, everyN int) *Tamperer {
	t := attack.NewTamperer(kind, everyN, xrand.New(m.cfg.Seed^0x7a3))
	m.sys.Bus().SetTamperer(t)
	return t
}

// SecurityEvents summarises what the machine's defences saw.
type SecurityEvents struct {
	TamperDetected  uint64
	RequestsLost    uint64
	SilentCorrupted uint64 // decode mismatches with no MAC to catch them
}

// SecurityEvents reports detection counters (zero-valued for machines
// without an ObfusMem controller).
func (m *Machine) SecurityEvents() SecurityEvents {
	obf := m.sys.Obfus()
	if obf == nil {
		return SecurityEvents{}
	}
	st := obf.Stats()
	return SecurityEvents{
		TamperDetected:  st.TamperDetected,
		RequestsLost:    st.RequestsLost,
		SilentCorrupted: st.DecodeMismatches,
	}
}

// TrafficStats summarises bus-level behaviour of the run so far.
type TrafficStats struct {
	RealReads         uint64
	RealWrites        uint64
	DummyReads        uint64
	DummyWrites       uint64
	InterChannelPairs uint64
	SubstitutedPairs  uint64
	DroppedAtMemory   uint64
	DummyPCMReads     uint64 // original/random dummy designs only
	DummyPCMWrites    uint64
	PadsProcessor     uint64
	PadsMemory        uint64
	BusBytes          uint64
	PCMArrayWrites    uint64
	PCMMaxWear        uint64 // highest per-row array-write count
	PCMEnergyPJ       float64
	CryptoEnergyPJ    float64
}

// Traffic reports traffic and energy counters.
func (m *Machine) Traffic() TrafficStats {
	ts := TrafficStats{BusBytes: m.sys.Bus().TotalBytes()}
	ps := m.sys.Memory().TotalPCMStats()
	ts.PCMArrayWrites = ps.ArrayWrites
	ts.PCMEnergyPJ = ps.EnergyPJ
	for ch := 0; ch < m.cfg.Channels; ch++ {
		if w := m.sys.Memory().Device(ch).MaxWear(); w > ts.PCMMaxWear {
			ts.PCMMaxWear = w
		}
	}
	if obf := m.sys.Obfus(); obf != nil {
		st := obf.Stats()
		ts.RealReads = st.RealReads
		ts.RealWrites = st.RealWrites
		ts.DummyReads = st.DummyReads
		ts.DummyWrites = st.DummyWrites
		ts.InterChannelPairs = st.InterChannelPairs
		ts.SubstitutedPairs = st.SubstitutedPairs
		ts.DroppedAtMemory = st.DroppedAtMemory
		ts.DummyPCMReads = st.DummyPCMReads
		ts.DummyPCMWrites = st.DummyPCMWrites
		ts.PadsProcessor = obf.PadsProc()
		ts.PadsMemory = obf.PadsMem()
		ts.CryptoEnergyPJ = obf.CryptoEnergyPJ()
	}
	return ts
}

// NVMLifetimeYears estimates device lifetime from the peak per-row wear
// rate observed over a simulated duration (worst channel).
func (m *Machine) NVMLifetimeYears(elapsed Time) float64 {
	worst := 1e12
	for ch := 0; ch < m.cfg.Channels; ch++ {
		if y := m.sys.Memory().Device(ch).LifetimeYears(elapsed); y < worst {
			worst = y
		}
	}
	return worst
}

// Overhead returns (exec-base)/base in percent, comparing two runs.
func Overhead(base, exec Result) float64 { return cpu.Overhead(base, exec) }

// Speedup returns how many times faster a is than b.
func Speedup(a, b Result) float64 { return cpu.Speedup(a, b) }
