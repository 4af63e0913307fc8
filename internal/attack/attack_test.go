package attack

import (
	"runtime"
	"testing"
	"unsafe"

	"obfusmem/internal/bus"
	"obfusmem/internal/keys"
	"obfusmem/internal/memctl"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// plainSend models an unprotected bus transfer: the command field carries
// the address in the clear, writes carry data, reads get data replies.
func plainSend(b *bus.Bus, m *memctl.Controller, at sim.Time, addr uint64, write bool) {
	ch := m.Mapper().ChannelOf(addr)
	var cmd [bus.CmdBytes]byte
	cmd[0] = byte(bus.Read)
	if write {
		cmd[0] = byte(bus.Write)
	}
	for i := 0; i < 8; i++ {
		cmd[1+i] = byte(addr >> (56 - 8*i))
	}
	pkt := &bus.Packet{
		Channel: ch, Dir: bus.ProcToMem, CmdCipher: cmd, HasCmd: true,
		Type: bus.Read, Addr: addr, Plaintext: true,
	}
	if write {
		pkt.Type = bus.Write
		pkt.Data = make([]byte, bus.DataBytes)
	}
	arrive, _ := b.Transfer(at, pkt)
	done := m.Access(arrive, addr, write)
	if !write {
		b.Transfer(done, &bus.Packet{Channel: ch, Dir: bus.MemToProc,
			Data: make([]byte, bus.DataBytes), Type: bus.Read, Addr: addr, Plaintext: true})
	}
}

func newObfusRig(t testing.TB, cfg obfus.Config, channels int) (*bus.Bus, *memctl.Controller, *obfus.Controller) {
	t.Helper()
	b := bus.New(bus.DefaultConfig(channels))
	mcfg := memctl.DefaultConfig(channels)
	mcfg.PCM.AdaptiveIdleClose = 0
	mc := memctl.New(mcfg)
	table := keys.NewSessionKeyTable(channels, mc.Mapper().ChannelOf)
	for ch := 0; ch < channels; ch++ {
		var k [16]byte
		k[5] = byte(ch + 7)
		table.SetKey(ch, k)
	}
	return b, mc, obfus.New(cfg, b, mc, table, xrand.New(77))
}

// A skewed address trace with heavy reuse (what real programs look like).
func skewedTrace(n int, seed uint64) []uint64 {
	r := xrand.New(seed)
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = (r.Uint64() % (1 << 28)) &^ 63
	}
	out := make([]uint64, n)
	for i := range out {
		if r.Prob(0.7) {
			out[i] = hot[r.Intn(len(hot))]
		} else {
			out[i] = (r.Uint64() % (1 << 28)) &^ 63
		}
	}
	return out
}

func TestPlaintextBusLeaksEverything(t *testing.T) {
	b := bus.New(bus.DefaultConfig(1))
	mcfg := memctl.DefaultConfig(1)
	mc := memctl.New(mcfg)
	obs := NewObserver(1, 1<<20)
	b.AttachObserver(obs)
	trace := skewedTrace(500, 1)
	at := sim.Time(0)
	for i, a := range trace {
		plainSend(b, mc, at, a, i%3 == 0)
		at += 100 * sim.Nanosecond
	}
	if got := obs.TemporalLeakage(); got < 0.5 {
		t.Fatalf("plaintext temporal leakage = %v, want high (trace reuses addresses)", got)
	}
	if err := obs.FootprintError(); err > 0.01 {
		t.Fatalf("plaintext footprint error = %v, attacker should count exactly", err)
	}
	if got := obs.DictionaryAttack(); got < 0.9 {
		t.Fatalf("plaintext dictionary attack recovery = %v, want ~1", got)
	}
}

func TestObfusMemHidesTemporalAndFootprint(t *testing.T) {
	b, _, ctrl := newObfusRig(t, obfus.Default(), 1)
	obs := NewObserver(1, 1<<20)
	b.AttachObserver(obs)
	trace := skewedTrace(500, 2)
	at := sim.Time(0)
	for _, a := range trace {
		done, _ := ctrl.Read(at, a)
		at = done
	}
	if got := obs.TemporalLeakage(); got != 0 {
		t.Fatalf("ObfusMem temporal leakage = %v, want 0 (CTR never repeats)", got)
	}
	// True footprint is small (hot set dominates); the estimate counts
	// every transfer as distinct, so the error must be enormous.
	if err := obs.FootprintError(); err < 1.0 {
		t.Fatalf("ObfusMem footprint error = %v, want >= 1 (estimate useless)", err)
	}
}

func TestECBStrawmanBreaksUnderDictionaryAttack(t *testing.T) {
	// Simulate ECB address encryption: a fixed permutation of the command
	// field. Temporal pattern and footprint leak; dictionary attack works.
	b := bus.New(bus.DefaultConfig(1))
	obs := NewObserver(1, 1<<20)
	b.AttachObserver(obs)
	trace := skewedTrace(2000, 3)
	// Deterministic "encryption": hash the address once (stands in for
	// the ECB permutation E_K(X); what matters is determinism).
	at := sim.Time(0)
	for _, a := range trace {
		var cmd [bus.CmdBytes]byte
		h := xrand.Mix64(a)
		for i := 0; i < 8; i++ {
			cmd[i] = byte(h >> (8 * i))
			cmd[8+i] = byte(xrand.Mix64(h) >> (8 * i))
		}
		pkt := &bus.Packet{Channel: 0, Dir: bus.ProcToMem, CmdCipher: cmd,
			HasCmd: true, Type: bus.Read, Addr: a}
		b.Transfer(at, pkt)
		at += 50 * sim.Nanosecond
	}
	if got := obs.TemporalLeakage(); got < 0.5 {
		t.Fatalf("ECB temporal leakage = %v, want high", got)
	}
	if got := obs.DictionaryAttack(); got < 0.5 {
		t.Fatalf("ECB dictionary attack recovery = %v, want substantial", got)
	}
	if err := obs.FootprintError(); err > 0.01 {
		t.Fatalf("ECB footprint error = %v, ECB leaks footprint exactly", err)
	}
}

func TestReadWriteIndistinguishableUnderObfusMem(t *testing.T) {
	profile := func(write bool) map[Shape]float64 {
		cfg := obfus.Default()
		cfg.SubstituteReal = false
		b, _, ctrl := newObfusRig(t, cfg, 1)
		obs := NewObserver(1, 1<<20)
		b.AttachObserver(obs)
		trace := skewedTrace(300, 4)
		at := sim.Time(0)
		for _, a := range trace {
			if write {
				ctrl.Write(at, a, at)
			} else {
				done, _ := ctrl.Read(at, a)
				_ = done
			}
			at += 200 * sim.Nanosecond
		}
		ctrl.Drain(at)
		return obs.ShapeProfile()
	}
	tv := TotalVariation(profile(false), profile(true))
	if tv > 0.02 {
		t.Fatalf("read/write TV distance = %v under ObfusMem, want ~0", tv)
	}
}

func TestReadWriteDistinguishableOnPlainBus(t *testing.T) {
	profile := func(write bool) map[Shape]float64 {
		b := bus.New(bus.DefaultConfig(1))
		mc := memctl.New(memctl.DefaultConfig(1))
		obs := NewObserver(1, 1<<20)
		b.AttachObserver(obs)
		at := sim.Time(0)
		for _, a := range skewedTrace(300, 5) {
			plainSend(b, mc, at, a, write)
			at += 200 * sim.Nanosecond
		}
		return obs.ShapeProfile()
	}
	tv := TotalVariation(profile(false), profile(true))
	if tv < 0.9 {
		t.Fatalf("read/write TV distance = %v on plaintext bus, want ~1", tv)
	}
}

func TestInterChannelPolicyHidesSpatialPattern(t *testing.T) {
	run := func(policy obfus.ChannelPolicy) float64 {
		cfg := obfus.Default()
		cfg.Policy = policy
		b, _, ctrl := newObfusRig(t, cfg, 4)
		obs := NewObserver(4, 1<<20)
		b.AttachObserver(obs)
		// Pathological spatial pattern: all traffic on one channel.
		at := sim.Time(0)
		for i := 0; i < 300; i++ {
			done, _ := ctrl.Read(at, uint64(i)*64%1024) // channel 0 only
			at = done + 500*sim.Nanosecond
		}
		return obs.SpatialCorrelation(100 * sim.Nanosecond)
	}
	unprotected := run(obfus.PolicyNone)
	opt := run(obfus.PolicyOPT)
	unopt := run(obfus.PolicyUNOPT)
	if unprotected < 0.9 {
		t.Fatalf("PolicyNone localisability = %v, want ~1 (all traffic on ch0)", unprotected)
	}
	// Window-boundary straddles (a pair whose dummies land in the
	// previous observation window) leave a small residue; anything near
	// the unprotected level would be a real leak.
	if unopt > 0.15 {
		t.Fatalf("UNOPT localisability = %v, want ~0", unopt)
	}
	if opt > 0.15 {
		t.Fatalf("OPT localisability = %v, want ~0 (requests were spaced out)", opt)
	}
}

func TestTamperModifyDetected(t *testing.T) {
	b, _, ctrl := newObfusRig(t, obfus.DefaultAuth(), 1)
	tmp := NewTamperer(TamperModify, 3, xrand.New(8))
	b.SetTamperer(tmp)
	at := sim.Time(0)
	failures := 0
	for i := 0; i < 60; i++ {
		_, ok := ctrl.Read(at, uint64(i)*4096)
		if !ok {
			failures++
		}
		at += sim.Microsecond
	}
	st := ctrl.Stats()
	if tmp.Attacked == 0 {
		t.Fatal("tamperer never attacked")
	}
	if st.TamperDetected < uint64(tmp.Attacked) {
		t.Fatalf("detected %d of %d modifications", st.TamperDetected, tmp.Attacked)
	}
	if failures == 0 {
		t.Fatal("no read reported failure despite tampering")
	}
}

func TestTamperMACDetected(t *testing.T) {
	b, _, ctrl := newObfusRig(t, obfus.DefaultAuth(), 1)
	tmp := NewTamperer(TamperMAC, 4, xrand.New(9))
	b.SetTamperer(tmp)
	at := sim.Time(0)
	for i := 0; i < 40; i++ {
		ctrl.Read(at, uint64(i)*4096)
		at += sim.Microsecond
	}
	if ctrl.Stats().TamperDetected < uint64(tmp.Attacked) {
		t.Fatalf("detected %d of %d MAC corruptions", ctrl.Stats().TamperDetected, tmp.Attacked)
	}
}

func TestTamperReplayDetected(t *testing.T) {
	b, _, ctrl := newObfusRig(t, obfus.DefaultAuth(), 1)
	tmp := NewTamperer(TamperReplay, 5, xrand.New(10))
	b.SetTamperer(tmp)
	at := sim.Time(0)
	for i := 0; i < 50; i++ {
		ctrl.Read(at, uint64(i)*4096)
		at += sim.Microsecond
	}
	if tmp.Attacked == 0 {
		t.Fatal("no replays mounted")
	}
	// Replayed packets carry stale counters: fresh-counter MAC check fails.
	if ctrl.Stats().TamperDetected < uint64(tmp.Attacked) {
		t.Fatalf("detected %d of %d replays", ctrl.Stats().TamperDetected, tmp.Attacked)
	}
}

func TestTamperDropCausesDesyncDetection(t *testing.T) {
	b, _, ctrl := newObfusRig(t, obfus.DefaultAuth(), 1)
	tmp := NewTamperer(TamperDrop, 10, xrand.New(11))
	b.SetTamperer(tmp)
	at := sim.Time(0)
	for i := 0; i < 40; i++ {
		ctrl.Read(at, uint64(i)*4096)
		at += sim.Microsecond
	}
	st := ctrl.Stats()
	if st.RequestsLost == 0 {
		t.Fatal("no packets dropped")
	}
	// Every packet after the first drop decodes under a shifted counter:
	// detection must follow promptly.
	if st.TamperDetected == 0 {
		t.Fatal("drop-induced desync never detected")
	}
}

func TestTamperDataNotCaughtByBusMAC(t *testing.T) {
	// Observation 4: the encrypt-and-MAC tag covers (type|addr|counter),
	// not data. Data corruption sails through the bus check (and is left
	// to the Merkle tree).
	b, _, ctrl := newObfusRig(t, obfus.DefaultAuth(), 1)
	tmp := NewTamperer(TamperData, 2, xrand.New(12))
	b.SetTamperer(tmp)
	at := sim.Time(0)
	for i := 0; i < 40; i++ {
		ctrl.Write(at, uint64(i)*4096, at)
		at += sim.Microsecond
	}
	ctrl.Drain(at)
	if tmp.Attacked == 0 {
		t.Fatal("no data corruptions mounted")
	}
	if got := ctrl.Stats().TamperDetected; got != 0 {
		t.Fatalf("bus MAC flagged %d data corruptions; encrypt-and-MAC must not cover data", got)
	}
}

func TestNoTampererNoFalsePositives(t *testing.T) {
	b, _, ctrl := newObfusRig(t, obfus.DefaultAuth(), 2)
	obs := NewObserver(2, 1<<20)
	b.AttachObserver(obs)
	at := sim.Time(0)
	r := xrand.New(13)
	for i := 0; i < 100; i++ {
		a := (r.Uint64() % (1 << 28)) &^ 63
		if r.Bool() {
			done, ok := ctrl.Read(at, a)
			if !ok {
				t.Fatalf("clean read %d failed", i)
			}
			at = done
		} else {
			ctrl.Write(at, a, at)
			at += 50 * sim.Nanosecond
		}
	}
	ctrl.Drain(at)
	st := ctrl.Stats()
	if st.TamperDetected != 0 || st.DecodeMismatches != 0 || st.RequestsLost != 0 {
		t.Fatalf("false positives: %+v", st)
	}
}

// TestObserverCountsDropped fills a tap past its limit: the packets it
// does not record are counted, and the ones it does are the first.
func TestObserverCountsDropped(t *testing.T) {
	obs := NewObserver(1, 3)
	for i := range 5 {
		obs.Observe(sim.Time(i), &bus.Packet{HasCmd: true, Addr: uint64(i)})
	}
	if obs.Packets() != 3 || obs.Dropped() != 2 {
		t.Fatalf("tap of limit 3 after 5 packets: %d recorded, %d dropped; want 3 and 2", obs.Packets(), obs.Dropped())
	}
	if got := obs.TruthTrace()[2].Addr; got != 2 {
		t.Errorf("last recorded packet is addr %d, want 2", got)
	}
}

// TestPacketRecordBounds pins a tap record at 40 bytes and checks that a
// packet its narrow fields cannot hold panics rather than wraps.
func TestPacketRecordBounds(t *testing.T) {
	if n := unsafe.Sizeof(pktRecord{}); n > 40 {
		t.Errorf("pktRecord is %d bytes, want at most 40", n)
	}
	for _, p := range []bus.Packet{{Channel: 256}, {Channel: -1}, {Data: make([]byte, 1<<16)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(channel %d, %d wire bytes) did not panic", p.Channel, p.WireBytes())
				}
			}()
			NewObserver(1, 10).Observe(0, &p)
		}()
	}
	obs := NewObserver(256, 10)
	obs.Observe(0, &bus.Packet{Channel: 255, Dir: bus.MemToProc, Data: make([]byte, 1<<16-1)})
	if w := obs.WireTrace()[0]; w.Channel != 255 || w.Dir != bus.MemToProc || w.Size != 1<<16-1 {
		t.Errorf("widest packet recorded as %+v", w)
	}
}

// TestObserverBytesPerPacket checks that a tap allocates about its 40-byte
// record per packet over a long run (the last chunk's slack and the chunk
// list included), not the several times that a slice grown by append
// allocates on its way to the same length.
func TestObserverBytesPerPacket(t *testing.T) {
	const packets = 100_000
	obs := NewObserver(2, packets)
	p := bus.Packet{HasCmd: true, Dir: bus.ProcToMem}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range packets {
		p.Channel, p.Addr = i%2, uint64(i)*64
		obs.Observe(sim.Time(i), &p)
	}
	runtime.ReadMemStats(&after)
	if obs.Packets() != packets {
		t.Fatalf("tap recorded %d of %d packets", obs.Packets(), packets)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / packets
	t.Logf("%.1f bytes allocated per recorded packet", per)
	if per > 44 {
		t.Errorf("tap allocates %.1f bytes per recorded packet, want at most 44 (1.1 times its 40-byte record)", per)
	}
}
