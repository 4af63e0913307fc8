// Package backend defines the first-class obfuscation-backend interface
// and the registry of protection schemes the simulator can assemble a
// machine from. It is the Go shape of the obfuscator-vtable idiom: each
// scheme registers a Descriptor (construct hook, feature flags, and, for
// the ObfusMem schemes, the default Obfus block), and internal/system
// builds machines from a registered name instead of switching on a
// hard-wired mode enum.
//
// Layering: this package may import the scheme packages (obfus, oram,
// palermo) and the shared substrates (bus, memctl); the scheme packages
// never import it, and internal/system imports only this package for
// scheme plumbing. Adding a scheme therefore touches its own package, one
// adapter file here, and nothing in system (see DESIGN.md "Obfuscation
// backends").
package backend

import (
	"sort"

	"obfusmem/internal/bus"
	"obfusmem/internal/keys"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
	"obfusmem/internal/xrand"
)

// Backend is one protection scheme's request path: everything between the
// processor-side request and the memory module that differs per scheme.
// At-rest encryption and the Merkle-verified value datapath stay in
// internal/system, shared by every backend.
type Backend interface {
	// Read services a demand read; ok is false when the scheme's protocol
	// refused or lost the request. A non-nil blk receives the stored
	// ciphertext block; nil models timing only. Timing and wire traffic
	// do not depend on blk.
	Read(at sim.Time, addr uint64, blk *memctl.Block) (done sim.Time, ok bool)
	// Write services a writeback. ready is the time the ciphertext is
	// available (>= at when at-rest encryption ran). A non-nil blk is the
	// ciphertext block to store; nil models timing only.
	Write(at sim.Time, addr uint64, ready sim.Time, blk *memctl.Block) sim.Time
	// Drain quiesces buffered scheme state (pending pairs, eviction
	// batches) at the given time.
	Drain(at sim.Time)
	// Err surfaces the scheme's fail-stop state (nil while healthy).
	Err() error
	// Accounting reports request-level bookkeeping; see Accounting.
	Accounting() Accounting
}

// Accounting is the request-conservation ledger every backend keeps:
// Issued == Completed + Lost + Refused must hold at quiesce. Lost counts
// requests dropped in flight with no recovery (the silent-loss class this
// ledger exists to surface); Refused counts requests explicitly rejected
// by a fail-stop protocol (quarantined channels).
type Accounting struct {
	Issued    uint64
	Completed uint64
	Lost      uint64
	Refused   uint64
}

// Gap returns Issued - Completed - Lost - Refused (zero when the ledger
// balances).
func (a Accounting) Gap() int64 {
	return int64(a.Issued) - int64(a.Completed) - int64(a.Lost) - int64(a.Refused)
}

// FetchMode says how counter-block traffic from the at-rest encryption
// engine reaches memory.
type FetchMode int

const (
	// FetchNone: counter/position state is held on-chip; the engine
	// generates no extra memory traffic (the paper's ORAM assumption).
	FetchNone FetchMode = iota
	// FetchSelf: counter-block fetches are routed back through this
	// backend, so metadata traffic is protected like demand traffic.
	FetchSelf
)

// Features are the per-scheme capability flags system assembly keys off.
type Features struct {
	// AtRest: the machine attaches the counter-mode at-rest encryption
	// engine (false only for the unprotected baseline).
	AtRest bool
	// CounterFetch selects the engine's metadata-traffic route.
	CounterFetch FetchMode
}

// Context is everything a construct hook may use: the shared substrates,
// observability layers, the machine's RNG tree, and the session-key
// bootstrap (a closure over the trust architecture in system, so backends
// need not know about handshakes).
type Context struct {
	Channels int
	Seed     uint64
	Bus      *bus.Bus
	Mem      *memctl.Controller
	Metrics  *metrics.Registry
	Trace    *trace.Recorder
	// ForkRng derives an independent, deterministic RNG stream from the
	// machine seed (same salt -> same stream).
	ForkRng func(salt uint64) *xrand.Rand
	// SessionKeys runs the machine's key establishment (direct derivation
	// or the full Section 3.1 handshake) and returns the per-channel table.
	SessionKeys func() *keys.SessionKeyTable
	// Obfus is the machine's ObfusMem design point; zero on schemes whose
	// Descriptor.Obfus is nil.
	Obfus obfus.Config
}

// Descriptor registers one scheme: its wire name, capability flags, the
// Obfus block it starts from, and the construct hook.
type Descriptor struct {
	// Name is the scheme's registered spelling; it is the single source of
	// truth for CLI flags, experiment tables, campaign manifests and the
	// root facade's Protection constants.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Features are the scheme's capability flags.
	Features Features
	// Obfus is the ObfusMem design point a default machine of this scheme
	// starts from. Nil means the scheme takes no options: system rejects
	// a config that sets the Obfus block on it.
	Obfus *obfus.Config
	// New builds the backend over the given context.
	New func(Context) (Backend, error)
}

// registry maps scheme name -> descriptor. Registration happens in this
// package's init functions only, so reads never race.
var registry = map[string]*Descriptor{}

// Register adds a descriptor; duplicate names are a programming error.
func Register(d *Descriptor) {
	if d.Name == "" || d.New == nil {
		panic("backend: descriptor needs a name and a construct hook")
	}
	if _, dup := registry[d.Name]; dup {
		panic("backend: duplicate registration of " + d.Name)
	}
	registry[d.Name] = d
}

// Lookup resolves a registered scheme name.
func Lookup(name string) (*Descriptor, bool) {
	d, ok := registry[name]
	return d, ok
}

// Names lists every registered scheme, sorted for deterministic output.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
