package backend_test

// The backend conformance suite: every registered protection scheme must
// satisfy the same contracts regardless of how it is implemented —
// round-tripping names through the registry, bit-identical replay under
// the same seed, exact reproduction of the pre-registry machines, request
// conservation under injected faults, and (where the scheme claims a hot
// path) an allocation-free steady-state leg. New backends get all of this
// for free the moment they register.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"obfusmem/internal/attack"
	"obfusmem/internal/backend"
	"obfusmem/internal/bus"
	"obfusmem/internal/cpu"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/obfus"
	"obfusmem/internal/pcm"
	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// conformanceConfig is the common operating point of the suite: the named
// scheme's defaults on 2 channels with a fixed machine seed.
func conformanceConfig(t *testing.T, name string) system.Config {
	t.Helper()
	cfg, err := system.DefaultConfigByName(name)
	if err != nil {
		t.Fatalf("DefaultConfigByName(%q): %v", name, err)
	}
	cfg.Channels = 2
	cfg.Seed = 12345
	return cfg
}

// runMilc drives one milc run at conformance scale and returns the result
// with its machine.
func runMilc(t *testing.T, cfg system.Config) (cpu.Result, *system.System) {
	t.Helper()
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	sys := system.New(cfg)
	return cpu.Run(p, 2500, sys, cpu.DefaultConfig(), 9), sys
}

// TestRegistryRoundTrip pins the single-source-of-truth contract for
// scheme names: every registered backend name resolves through
// DefaultConfigByName, builds a machine, and survives the round trip back
// out of the machine's Config, and a config that names no scheme is an
// error rather than a silent default. Before the registry,
// "obfusmem-auth" existed only inside a CLI switch and could not be named
// by library callers at all.
func TestRegistryRoundTrip(t *testing.T) {
	names := system.BackendNames()
	if len(names) < 4 {
		t.Fatalf("registry has %d backends, want at least the paper's four: %v", len(names), names)
	}
	for _, name := range names {
		cfg, err := system.DefaultConfigByName(name)
		if err != nil {
			t.Errorf("DefaultConfigByName(%q): %v", name, err)
			continue
		}
		if cfg.Backend != name {
			t.Errorf("DefaultConfigByName(%q).Backend = %q", name, cfg.Backend)
		}
		sys, err := system.NewChecked(cfg)
		if err != nil {
			t.Errorf("NewChecked(%q): %v", name, err)
			continue
		}
		if got := sys.Config().Backend; got != name {
			t.Errorf("machine built as %q reports Backend %q", name, got)
		}
	}
	if _, err := system.NewChecked(system.Config{}); err == nil {
		t.Error("NewChecked accepted a config with no Backend")
	}
	if _, err := system.DefaultConfigByName("no-such-scheme"); err == nil {
		t.Error("DefaultConfigByName accepted an unregistered scheme name")
	}
}

// TestForeignOptionsRejected pins the config-validation bugfix: an Obfus
// block on a scheme that does not take it is a configuration error, not a
// silent no-op.
func TestForeignOptionsRejected(t *testing.T) {
	cfg := conformanceConfig(t, "unprotected")
	cfg.Obfus = obfus.DefaultAuth()
	if _, err := system.NewChecked(cfg); err == nil {
		t.Error("Obfus options on an unprotected machine were not rejected")
	}
	cfg = conformanceConfig(t, "oram")
	cfg.Obfus.Recovery = true
	if _, err := system.NewChecked(cfg); err == nil {
		t.Error("Obfus options on an oram machine were not rejected")
	}
}

// TestSameSeedDeterminism replays the identical workload twice on freshly
// built machines of every backend and requires bit-identical results: same
// execution time, same bus traffic, same accounting ledger.
func TestSameSeedDeterminism(t *testing.T) {
	for _, name := range system.BackendNames() {
		t.Run(name, func(t *testing.T) {
			resA, sysA := runMilc(t, conformanceConfig(t, name))
			resB, sysB := runMilc(t, conformanceConfig(t, name))
			if resA.ExecTime != resB.ExecTime {
				t.Errorf("exec time diverged: %d vs %d ps", resA.ExecTime, resB.ExecTime)
			}
			if a, b := sysA.Bus().TotalBytes(), sysB.Bus().TotalBytes(); a != b {
				t.Errorf("bus traffic diverged: %d vs %d bytes", a, b)
			}
			if a, b := sysA.Accounting(), sysB.Accounting(); a != b {
				t.Errorf("accounting diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// preRegistryGolden are the exact outputs of the pre-refactor per-mode
// system (captured at the head of this PR, before internal/backend
// existed) on milc, 2500 requests, 2 channels, machine seed 12345, CPU
// seed 9. The registry-assembled machines must reproduce them bit for bit:
// the vtable indirection is a pure refactor with zero timing drift.
var preRegistryGolden = map[string]struct {
	execPS   sim.Time
	busBytes uint64
}{
	"unprotected":   {execPS: 131546345, busBytes: 200000},
	"encrypt-only":  {execPS: 137722266, busBytes: 215760},
	"obfusmem":      {execPS: 152695137, busBytes: 417600},
	"obfusmem-auth": {execPS: 160655660, busBytes: 477848},
	"oram":          {execPS: 2663731696, busBytes: 0},
}

func TestPreRegistryGoldenOutputs(t *testing.T) {
	for name, want := range preRegistryGolden {
		t.Run(name, func(t *testing.T) {
			res, sys := runMilc(t, conformanceConfig(t, name))
			if res.ExecTime != want.execPS {
				t.Errorf("exec time %d ps, pre-registry golden %d ps", res.ExecTime, want.execPS)
			}
			if got := sys.Bus().TotalBytes(); got != want.busBytes {
				t.Errorf("bus traffic %d bytes, pre-registry golden %d bytes", got, want.busBytes)
			}
		})
	}
}

// TestNoSilentlyLostRequests pins request conservation under injected
// faults for every backend: the ledger must balance (Issued == Completed +
// Lost + Refused), and any packet the injector dropped must show up either
// as a recovery (schemes with the retry protocol) or in the Lost column
// and the fault.lost_requests metric — never vanish into the latency
// distribution, which is exactly what the unprotected and encrypt-only
// machines used to do.
func TestNoSilentlyLostRequests(t *testing.T) {
	for _, name := range system.BackendNames() {
		t.Run(name, func(t *testing.T) {
			cfg := conformanceConfig(t, name)
			cfg.InjectFaults(1e-3)
			reg := metrics.NewRegistry()
			cfg.Metrics = reg
			res, sys := runMilc(t, cfg)
			acct := sys.Accounting()
			if gap := acct.Gap(); gap != 0 {
				t.Errorf("ledger unbalanced: %+v (gap %d)", acct, gap)
			}
			if name == "unprotected" {
				if got := res.Reads + res.Writes; acct.Issued != got {
					t.Errorf("issued %d requests, CPU retired %d", acct.Issued, got)
				}
			}
			if name == "obfusmem-auth" && acct.Lost != 0 {
				t.Errorf("recovery armed but %d requests lost", acct.Lost)
			}
			injLost := sys.FaultInjector().Stats().Losses
			metricLost := reg.Scope(names.ScopeFault).Counter(names.FaultLostRequests).Value()
			switch name {
			case "unprotected", "encrypt-only", "palermo":
				// No retransmit machinery: injector drops must surface.
				if injLost > 0 && acct.Lost == 0 {
					t.Errorf("injector dropped %d packets but the ledger shows 0 lost", injLost)
				}
				if metricLost != acct.Lost {
					t.Errorf("fault.lost_requests metric %d != ledger Lost %d", metricLost, acct.Lost)
				}
			}
		})
	}
}

// TestHotPathZeroAllocs drives a steady-state read+write leg through the
// system datapath of every backend and requires zero allocations per
// operation once
// arenas, rings, and counter state are warm. The address set is fixed so
// cache/metadata structures reach their high-water mark during warm-up. A
// metrics registry is attached so the instrument updates on the leg run
// their bodies: nil instruments return at once and would hide an allocation
// planted there.
func TestHotPathZeroAllocs(t *testing.T) {
	for _, name := range system.BackendNames() {
		t.Run(name, func(t *testing.T) {
			cfg := conformanceConfig(t, name)
			cfg.Metrics = metrics.NewRegistry()
			sys := system.New(cfg)
			at := sim.Time(0)
			step := func() {
				for i := 0; i < 8; i++ {
					sys.Read(at, uint64(0x4000+64*i))
					sys.Write(at, uint64(0x8000+64*i))
					at += 400 * sim.Nanosecond
				}
			}
			for i := 0; i < 64; i++ { // warm-up: 512 reads + 512 writes
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("steady-state leg allocates %.2f allocs/op, want 0", allocs/16)
			}
		})
	}
}

// TestTracedHotPathZeroAllocs is TestHotPathZeroAllocs with the span
// recorder attached to an obfusmem-auth machine: once the ring has wrapped
// and the attribution samples are at their cap, recording spans, instants
// and request envelopes and the traced Read and Write legs allocate
// nothing.
func TestTracedHotPathZeroAllocs(t *testing.T) {
	cfg := conformanceConfig(t, "obfusmem-auth")
	cfg.Metrics = metrics.NewRegistry()
	rec := trace.New(256)
	cfg.Trace = rec
	sys := system.New(cfg)
	at := sim.Time(0)
	step := func() {
		for i := 0; i < 8; i++ {
			addr := uint64(0x4000 + 64*i)
			id := rec.BeginRequest(names.ReqRead, addr, at)
			done := sys.Read(at, addr)
			rec.EndRequest(id, done)
			id = rec.BeginRequest(names.ReqWrite, addr+0x4000, at)
			sys.Write(at, addr+0x4000)
			rec.EndRequest(id, at+sim.Nanosecond)
			rec.Span(trace.PIDCPU, "test", trace.CatOther, names.SpanFrontend, at, at+sim.Nanosecond,
				trace.Int("i", int64(i)), trace.Str("s", "x"), trace.Float("f", 0.5), trace.Bool("b", true))
			rec.Instant(trace.PIDCPU, "test", names.SpanDecode, at, trace.Uint("u", addr))
			at += 400 * sim.Nanosecond
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if rec.Dropped() == 0 {
		t.Fatal("warm-up did not wrap the span ring")
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("traced steady-state leg allocates %.2f allocs/op, want 0", allocs/16)
	}
}

// wireGeometry is memctl.Mapper's RoRaBaChCo field layout, rebuilt from the
// PCM parameters so a test can relabel decoded fields and encode them back.
// wireView checks every address it drives against Mapper.Decode, so
// the two layouts cannot drift apart silently.
type wireGeometry struct {
	blockShift, colBits, chanBits, bankBits, rankBits, rowBits uint
}

// capacityBits is log2 of the machine's 8 GiB physical address space.
const capacityBits = 33

func geometryOf(channels int) wireGeometry {
	log2 := func(n int) uint { return uint(bits.TrailingZeros(uint(n))) }
	g := wireGeometry{
		blockShift: log2(pcm.BlockBytes),
		colBits:    log2(pcm.RowBytes / pcm.BlockBytes),
		chanBits:   log2(channels),
		bankBits:   log2(pcm.BanksPerRank),
		rankBits:   log2(pcm.Ranks),
	}
	g.rowBits = capacityBits - g.blockShift - g.colBits - g.chanBits - g.bankBits - g.rankBits
	return g
}

func (g wireGeometry) encode(c memctl.Coords) uint64 {
	a := uint64(c.Row)
	a = a<<g.rankBits | uint64(c.Rank)
	a = a<<g.bankBits | uint64(c.Bank)
	a = a<<g.chanBits | uint64(c.Channel)
	a = a<<g.colBits | uint64(c.Col)
	return a << g.blockShift
}

// relabeling is one named XOR mask over decoded address fields.
type relabeling struct {
	name string
	mask memctl.Coords
}

// relabel XORs every field but the channel with the mask's. XOR on a field
// is a bijection that preserves equality between accesses, so row-buffer
// hits and bank conflicts among the stream's own accesses are unchanged.
func relabel(c, mask memctl.Coords) memctl.Coords {
	c.Row ^= mask.Row
	c.Rank ^= mask.Rank
	c.Bank ^= mask.Bank
	c.Col ^= mask.Col
	return c
}

// wireOp is one request of the relabeling stream.
type wireOp struct {
	write bool
	value bool     // carries a block
	at    sim.Time // arrival
	ready sim.Time // when a write's at-rest ciphertext is available
	co    memctl.Coords
}

// wireStream draws n requests at fixed 150 ns arrivals. Half of them reuse
// the previous request's row, bank and channel so the stream has row-buffer
// locality for a relabeling to preserve. Half the writes have their
// ciphertext ready 40 ns after arrival, as at-rest encryption can make it:
// then the write half of a pair leaves at its own ready time instead of
// queueing behind the pair's first packet, so a delay on it shows.
func wireStream(g wireGeometry, n int, seed uint64) []wireOp {
	r := xrand.New(seed)
	ops := make([]wireOp, n)
	var co memctl.Coords
	for i := range ops {
		if i == 0 || r.Intn(2) == 0 {
			co = memctl.Coords{
				Channel: r.Intn(1 << g.chanBits),
				Rank:    r.Intn(1 << g.rankBits),
				Bank:    r.Intn(1 << g.bankBits),
				Row:     int64(r.Uint64n(1 << g.rowBits)),
			}
		}
		co.Col = r.Intn(1 << g.colBits)
		at := sim.Time(i) * 150 * sim.Nanosecond
		kind := r.Intn(4)
		ops[i] = wireOp{write: kind&1 == 1, value: kind >= 2, at: at, ready: at + sim.Time(r.Intn(2))*40*sim.Nanosecond, co: co}
	}
	return ops
}

// withValues returns a copy of ops in which every request carries a block
// (value true) or none does.
func withValues(ops []wireOp, value bool) []wireOp {
	out := append([]wireOp(nil), ops...)
	for i := range out {
		out[i].value = value
	}
	return out
}

// wireView drives the backend of a fresh machine directly with the stream
// relabeled by mask and returns the attacker's view of the bus. Command
// ciphertext is zeroed unless it travelled in plaintext: sealed bytes
// differ with the address by construction, and sealing is checked by
// TestEveryAccessLooksLikeReadThenWrite and the value round-trip tests.
func wireView(t *testing.T, cfg system.Config, g wireGeometry, ops []wireOp, mask memctl.Coords) []attack.Wire {
	t.Helper()
	sys := system.New(cfg)
	obs := attack.NewObserver(cfg.Channels, 1<<20)
	sys.Bus().AttachObserver(obs)
	bk := sys.Backend()
	mapper := sys.Memory().Mapper()
	var end sim.Time
	for _, op := range ops {
		co := relabel(op.co, mask)
		addr := g.encode(co)
		if got := mapper.Decode(addr); got != co {
			t.Fatalf("test encoder disagrees with memctl.Mapper: %+v encodes to %#x, which decodes to %+v", co, addr, got)
		}
		var blk *memctl.Block
		if op.value {
			blk = new(memctl.Block)
			for i := 0; i < len(blk); i += 8 {
				binary.LittleEndian.PutUint64(blk[i:], xrand.Mix64(addr+uint64(i)))
			}
		}
		if op.write {
			bk.Write(op.at, addr, op.ready, blk)
		} else {
			bk.Read(op.at, addr, blk)
		}
		end = op.at
	}
	bk.Drain(end + 150*sim.Nanosecond)
	view := obs.WireTrace()
	for i := range view {
		if !view[i].Plaintext {
			view[i].Cmd = [bus.CmdBytes]byte{}
		}
	}
	return view
}

// TestWireInvariantUnderRelabeling is the wire non-interference contract
// of paper §3 and Table 4, in the deterministic form of Haider et al.'s
// indistinguishability definition (arXiv 1706.03852): a request stream and
// the same stream with its addresses relabeled inside each channel must
// give bit-identical wire views — times, channels, directions, sizes and
// command presence. Only the channel may depend on the address (per-channel
// cover traffic hides which channel is real, §3.4).
//
// The backend is driven directly, below the at-rest encryption engine, so
// counter-block fetches are out of scope. Relabeling covers row and column
// bits on every configuration; bank and rank bits too, except on
// timing-oblivious ObfusMem and Palermo. Those place PCM accesses at fixed
// locations (undropped dummies, cover blocks), so relabeling a real access
// changes which bank it conflicts with: the device-timing channel §6.2
// puts out of scope, and which timing-oblivious padding hides only while
// queueing stays inside its margin (see obfus.WorstCaseAccess).
//
// A backend that puts plaintext commands on the wire must differ: that is
// the test's positive control.
func TestWireInvariantUnderRelabeling(t *testing.T) {
	for _, c := range wireCases(t) {
		t.Run(c.name, func(t *testing.T) {
			g := geometryOf(c.cfg.Channels)
			ops := wireStream(g, wireRequests, 0x7e1abe1)
			r := xrand.New(0x3a5c)
			randomRowCol := func() memctl.Coords {
				return memctl.Coords{Row: int64(1 + r.Uint64n(1<<g.rowBits-1)), Col: r.Intn(1 << g.colBits)}
			}
			masks := []relabeling{
				{"row+col flipped", memctl.Coords{Row: 1<<g.rowBits - 1, Col: 1<<g.colBits - 1}},
				{"row+col random", randomRowCol()},
			}
			if !c.fixedPCM {
				m := randomRowCol()
				m.Bank = 1 + r.Intn(1<<g.bankBits-1)
				m.Rank = r.Intn(1 << g.rankBits)
				masks = append(masks, relabeling{"row+col+bank+rank random", m})
			}
			want := wireView(t, c.cfg, g, ops, memctl.Coords{})
			plaintext := false
			for _, w := range want {
				plaintext = plaintext || w.Plaintext
			}
			for _, m := range masks {
				got := wireView(t, c.cfg, g, ops, m.mask)
				i := firstWireDiff(want, got)
				switch {
				case plaintext && i < 0:
					t.Errorf("%s: plaintext wire unchanged by relabeling; the contract has lost its positive control", m.name)
				case !plaintext && i >= 0:
					t.Errorf("%s: wire views diverge at transfer %d of %d/%d:\n original  %+v\n relabeled %+v",
						m.name, i, len(want), len(got), wireAt(want, i), wireAt(got, i))
				}
			}
		})
	}
}

// TestValuePathMatchesTimingPath requires that whether a request carries a
// block changes nothing on the wire: every case of the relabeling table,
// driven once with nil blocks and once with a block on every request,
// must give bit-identical wire views. The value path and the timing path
// are one code path per direction; before they were, value writes under
// timing-oblivious operation quantized twice. Substitute-real
// pairing is off because a value write bypasses its queue by design.
func TestValuePathMatchesTimingPath(t *testing.T) {
	for _, c := range wireCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Obfus.SubstituteReal = false
			g := geometryOf(cfg.Channels)
			ops := wireStream(g, wireRequests, 0x7e1abe1)
			timing := wireView(t, cfg, g, withValues(ops, false), memctl.Coords{})
			value := wireView(t, cfg, g, withValues(ops, true), memctl.Coords{})
			if i := firstWireDiff(timing, value); i >= 0 {
				t.Errorf("value path diverges from timing path at transfer %d of %d/%d:\n timing %+v\n value  %+v",
					i, len(timing), len(value), wireAt(timing, i), wireAt(value, i))
			}
		})
	}
}

// wireRequests is the length of the contract tests' request stream.
const wireRequests = 1500

// wireCase is one machine configuration of the wire contract tests.
type wireCase struct {
	name     string
	cfg      system.Config
	fixedPCM bool // accesses at fixed PCM locations: no bank/rank relabeling
}

// wireCases is every registered backend at 1, 2 and 4 channels, plus
// ObfusMem's UNOPT policy and timing-oblivious mode.
func wireCases(t *testing.T) []wireCase {
	var cases []wireCase
	for _, name := range system.BackendNames() {
		d, _ := backend.Lookup(name)
		for _, channels := range []int{1, 2, 4} {
			cfg := conformanceConfig(t, name)
			cfg.Channels = channels
			base := fmt.Sprintf("%s/%dch", name, channels)
			cases = append(cases, wireCase{base, cfg, name == "palermo"})
			if d.Obfus != nil {
				unopt := cfg
				unopt.Obfus.Policy = obfus.PolicyUNOPT
				cases = append(cases, wireCase{base + "/unopt", unopt, false})
				to := cfg
				to.Obfus.TimingOblivious = true
				cases = append(cases, wireCase{base + "/timing-oblivious", to, true})
			}
		}
	}
	return cases
}

// firstWireDiff returns the index of the first differing transfer, or -1.
func firstWireDiff(a, b []attack.Wire) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func wireAt(v []attack.Wire, i int) any {
	if i < len(v) {
		return v[i]
	}
	return "(end of trace)"
}
