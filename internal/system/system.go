// Package system assembles full machines for each protection scheme the
// simulator evaluates: the paper's Unprotected baseline (Table 3 /
// Figs 4-5), EncryptOnly (counter-mode memory encryption), ObfusMem in all
// its design variants, the fixed-latency Path ORAM model, and schemes from
// follow-on work (Palermo). Every configuration shares the same bus,
// controller, and PCM substrates, so measured differences are attributable
// to the protection scheme alone.
//
// Schemes are obtained from the internal/backend registry: a machine is
// assembled from its registered backend name (Config.Backend), which is
// the only way a scheme is named.
package system

import (
	"fmt"
	"strings"

	"obfusmem/internal/backend"
	"obfusmem/internal/bus"
	"obfusmem/internal/ctrmode"
	"obfusmem/internal/fault"
	"obfusmem/internal/keys"
	"obfusmem/internal/memctl"
	"obfusmem/internal/merkle"
	"obfusmem/internal/metrics"
	"obfusmem/internal/obfus"
	"obfusmem/internal/palermo"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
	"obfusmem/internal/xrand"
)

// BackendNames lists every registered scheme name, sorted.
func BackendNames() []string { return backend.Names() }

// Config describes a machine.
type Config struct {
	// Backend selects the protection scheme by registered name (see
	// BackendNames).
	Backend string
	// Channels is the number of independent bus/memory channels, a power
	// of two; 0 or less means 1.
	Channels int
	// Obfus selects the ObfusMem design point (obfusmem / obfusmem-auth);
	// it must stay zero on every other scheme.
	Obfus obfus.Config
	// FullHandshake runs the complete trust-bootstrap + DH key
	// establishment from the keys package instead of deriving session
	// keys directly from the seed. Slower; used by examples and
	// integration tests.
	FullHandshake bool
	Seed          uint64
	// Metrics, when non-nil, turns on the observability layer: the bus,
	// memory controller, PCM devices, the counter-mode encryption engine
	// and the protection backend all record counters/histograms into
	// per-component scopes of this registry.
	// Multiple systems may share one registry (instruments are atomic);
	// their counts then aggregate. Nil (the default) disables with a
	// nil-instrument fast path, keeping the hot path unperturbed.
	Metrics *metrics.Registry
	// Trace, when non-nil, turns on per-request lifecycle tracing: the bus,
	// memory controller, PCM devices, and the protection backend record
	// spans into this recorder. Unlike Metrics, a Recorder is
	// single-threaded — never share one across concurrently-driven
	// systems. Nil disables.
	Trace *trace.Recorder
	// Fault, when non-nil, installs a transient-fault injector on the bus
	// (bit flips, packet loss, stalls); InjectFaults sets it together with
	// Obfus.Recovery on the ObfusMem schemes. The other machines have no
	// recovery protocol and lose faulted requests, like the DDR bus they
	// model would without CRC-retry — the loss is surfaced through
	// Accounting and the fault.lost_requests metric. When Fault.Seed is
	// zero the injector derives its stream from the machine Seed.
	Fault *fault.Config
}

// DefaultConfig returns a single-channel machine for the named backend
// with the paper's parameters. It is for name literals in code and panics
// on an unregistered name; flags and manifests use DefaultConfigByName.
func DefaultConfig(name string) Config {
	cfg, err := DefaultConfigByName(name)
	if err != nil {
		panic("system: " + err.Error())
	}
	return cfg
}

// DefaultConfigByName returns a single-channel machine for the named
// backend, its Obfus block copied from the scheme's descriptor.
func DefaultConfigByName(name string) (Config, error) {
	d, err := lookup(name)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Backend: name, Channels: 1, Seed: 1}
	if d.Obfus != nil {
		cfg.Obfus = *d.Obfus
	}
	return cfg, nil
}

// lookup resolves a registered backend name, listing the registered names
// in its error.
func lookup(name string) (*backend.Descriptor, error) {
	d, ok := backend.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q (registered: %s)",
			name, strings.Join(BackendNames(), ", "))
	}
	return d, nil
}

// InjectFaults installs a uniform transient-fault injector at the given
// per-packet rate, its stream derived from the machine Seed, and arms the
// recovery protocol on the ObfusMem schemes. This is the one place that
// decides which schemes recover; the others lose faulted requests (see
// Fault).
func (c *Config) InjectFaults(rate float64) {
	fc := fault.Uniform(rate, 0)
	c.Fault = &fc
	if d, ok := backend.Lookup(c.Backend); ok && d.Obfus != nil {
		c.Obfus.Recovery = true
	}
}

// System is an assembled machine implementing cpu.MemorySystem.
type System struct {
	cfg Config
	bus *bus.Bus
	mem *memctl.Controller
	enc *ctrmode.Engine
	bk  backend.Backend
	inj *fault.Injector
	rng *xrand.Rand
	// dataTree is the functional Merkle tree backing the value-carrying
	// mode (lazily built on first WriteData).
	dataTree *merkle.Tree

	// Boot record (populated under FullHandshake).
	BootApproach keys.Approach
}

// New builds a machine, panicking on configuration errors (the historical
// contract; use NewChecked to handle them).
func New(cfg Config) *System {
	s, err := NewChecked(cfg)
	if err != nil {
		panic("system: " + err.Error())
	}
	return s
}

// NewChecked builds a machine from the registered backend selected by
// cfg.Backend. It rejects unknown (or empty) scheme names and a non-zero
// Obfus block on a scheme other than ObfusMem, which would silently do
// nothing, and an Obfus design knob outside its declared values (see
// obfus.Config.Check). It also rejects a channel count that is not a
// power of two, which the address mapper cannot split.
func NewChecked(cfg Config) (*System, error) {
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	if cfg.Channels&(cfg.Channels-1) != 0 {
		return nil, fmt.Errorf("channel count %d is not a power of two", cfg.Channels)
	}
	d, err := lookup(cfg.Backend)
	if err != nil {
		return nil, err
	}
	if d.Obfus == nil && cfg.Obfus != (obfus.Config{}) {
		return nil, fmt.Errorf("backend %q does not take the Obfus options", cfg.Backend)
	}
	if err := cfg.Obfus.Check(); err != nil {
		return nil, err
	}
	mcfg := memctl.DefaultConfig(cfg.Channels)
	mcfg.Metrics = cfg.Metrics
	mcfg.Trace = cfg.Trace
	bcfg := bus.DefaultConfig(cfg.Channels)
	bcfg.Metrics = cfg.Metrics
	bcfg.Trace = cfg.Trace
	s := &System{
		cfg: cfg,
		bus: bus.New(bcfg),
		mem: memctl.New(mcfg),
		rng: xrand.New(cfg.Seed ^ 0x0bf05)}
	if cfg.Fault != nil {
		fcfg := *cfg.Fault
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed
		}
		s.inj = fault.New(fcfg, cfg.Channels, cfg.Metrics)
		s.bus.SetFaultInjector(s.inj)
	}

	// The memory-encryption key is drawn first, before any backend
	// construction, fixing the machine's RNG draw order across schemes.
	var memKey [16]byte
	s.rng.Bytes(memKey[:])

	bk, err := d.New(backend.Context{
		Channels:    cfg.Channels,
		Seed:        cfg.Seed,
		Bus:         s.bus,
		Mem:         s.mem,
		Metrics:     cfg.Metrics,
		Trace:       cfg.Trace,
		ForkRng:     s.rng.Fork,
		SessionKeys: s.establishKeys,
		Obfus:       cfg.Obfus,
	})
	if err != nil {
		return nil, fmt.Errorf("backend %q: %w", cfg.Backend, err)
	}
	s.bk = bk

	if d.Features.AtRest {
		var fetch func(sim.Time, uint64, bool) sim.Time
		if d.Features.CounterFetch == backend.FetchSelf {
			fetch = s.counterFetch
		}
		s.enc = ctrmode.New(memKey, fetch)
		s.enc.SetMetrics(cfg.Metrics)
	}
	return s, nil
}

// establishKeys produces the per-channel session key table, either through
// the full trust architecture or directly from the seed. It is handed to
// backends as the Context.SessionKeys hook.
func (s *System) establishKeys() *keys.SessionKeyTable {
	table := keys.NewSessionKeyTable(s.cfg.Channels, s.mem.Mapper().ChannelOf)
	if !s.cfg.FullHandshake {
		for ch := 0; ch < s.cfg.Channels; ch++ {
			var k [16]byte
			s.rng.Bytes(k[:])
			table.SetKey(ch, k)
		}
		return table
	}
	r := s.rng.Fork(1)
	procMfg := keys.NewManufacturer("proc-mfg", r)
	memMfg := keys.NewManufacturer("mem-mfg", r)
	proc := procMfg.Produce(keys.Processor, true, s.cfg.Channels)
	ig := keys.NewIntegrator(true, r)
	s.BootApproach = keys.TrustedIntegrator
	for ch := 0; ch < s.cfg.Channels; ch++ {
		mem := memMfg.Produce(keys.Memory, true, 1)
		if err := ig.Integrate(proc, mem); err != nil {
			panic("system: integration failed: " + err.Error())
		}
		res, err := keys.EstablishSession(keys.TrustedIntegrator, proc, mem,
			procMfg.CAKey(), memMfg.CAKey(), nil, r)
		if err != nil {
			panic("system: session establishment failed: " + err.Error())
		}
		table.SetKey(ch, res.Key)
	}
	return table
}

// Bus exposes the interconnect (for observers).
func (s *System) Bus() *bus.Bus { return s.bus }

// Memory exposes the controller + PCM (for stats).
func (s *System) Memory() *memctl.Controller { return s.mem }

// Encryption exposes the memory-encryption engine (nil when unprotected).
func (s *System) Encryption() *ctrmode.Engine { return s.enc }

// Backend exposes the protection backend servicing this machine.
func (s *System) Backend() backend.Backend { return s.bk }

// Obfus exposes the ObfusMem controller (nil on other backends).
func (s *System) Obfus() *obfus.Controller {
	if o, ok := s.bk.(*backend.Obfus); ok {
		return o.Controller()
	}
	return nil
}

// Palermo exposes the Palermo controller (nil on other backends).
func (s *System) Palermo() *palermo.Controller {
	if p, ok := s.bk.(*backend.Palermo); ok {
		return p.Controller()
	}
	return nil
}

// Accounting returns the backend's request-conservation ledger.
func (s *System) Accounting() backend.Accounting { return s.bk.Accounting() }

// FaultInjector exposes the transient-fault injector (nil when Config.Fault
// is nil).
func (s *System) FaultInjector() *fault.Injector { return s.inj }

// Err surfaces the machine's fail-stop state: a *obfus.ChannelError when
// the ObfusMem recovery protocol has quarantined channels, nil otherwise.
func (s *System) Err() error { return s.bk.Err() }

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// counterFetch routes the at-rest encryption engine's counter-block
// traffic back through the protection backend (Features.CounterFetch ==
// FetchSelf), so metadata fetches are protected like demand traffic.
func (s *System) counterFetch(at sim.Time, addr uint64, write bool) sim.Time {
	a := addr % memctl.Capacity
	if write {
		return s.bk.Write(at, a, at, nil)
	}
	done, _ := s.bk.Read(at, a, nil)
	return done
}

// Read implements cpu.MemorySystem.
func (s *System) Read(at sim.Time, addr uint64) sim.Time {
	addr %= memctl.Capacity
	dataReady, _ := s.bk.Read(at, addr, nil)
	if s.enc != nil {
		return s.enc.DecryptFill(at, addr, dataReady)
	}
	return dataReady
}

// Write implements cpu.MemorySystem.
func (s *System) Write(at sim.Time, addr uint64) sim.Time {
	addr %= memctl.Capacity
	ready := at
	if s.enc != nil {
		ready, _ = s.enc.EncryptWriteback(at, addr)
	}
	return s.bk.Write(at, addr, ready, nil)
}

// Drain implements cpu.MemorySystem.
func (s *System) Drain(at sim.Time) {
	s.bk.Drain(at)
	s.mem.Flush()
}
