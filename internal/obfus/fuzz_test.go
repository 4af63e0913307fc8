package obfus

import (
	"testing"
	"testing/quick"

	"obfusmem/internal/bus"
	"obfusmem/internal/keys"
	"obfusmem/internal/memctl"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// Protocol fuzz: random interleavings of reads, writes, drains, and config
// points must preserve the controller's core invariants.

func fuzzConfig(r *xrand.Rand) Config {
	cfg := Default()
	cfg.Dummy = DummyDesign(r.Intn(3))
	cfg.Policy = ChannelPolicy(r.Intn(3))
	cfg.MAC = MACMode(r.Intn(3))
	cfg.Order = PairOrder(r.Intn(2))
	cfg.SubstituteReal = r.Bool()
	return cfg
}

func TestProtocolFuzzNoFalsePositives(t *testing.T) {
	// Without an attacker, no configuration may ever report tampering,
	// lose a request, or silently mis-decode; reads always succeed and
	// completion times never precede issue times.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		channels := 1 << r.Intn(3)
		cfg := fuzzConfig(r)
		b := bus.New(bus.DefaultConfig(channels))
		mcfg := memctl.DefaultConfig(channels)
		mc := memctl.New(mcfg)
		table := newFuzzTable(channels, mc, r)
		ctrl := New(cfg, b, mc, table, r.Fork(1))

		at := sim.Time(0)
		for i := 0; i < 120; i++ {
			addr := (r.Uint64() % (1 << 29)) &^ 63
			at += sim.Time(r.Intn(500)) * sim.Nanosecond
			switch r.Intn(5) {
			case 0, 1, 2:
				done, ok := ctrl.Read(at, addr)
				if !ok || done < at {
					return false
				}
			case 3:
				ctrl.Write(at, addr, at)
			default:
				ctrl.Drain(at)
			}
		}
		ctrl.Drain(at + sim.Microsecond)
		st := ctrl.Stats()
		return st.TamperDetected == 0 && st.DecodeMismatches == 0 && st.RequestsLost == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func newFuzzTable(channels int, mc *memctl.Controller, r *xrand.Rand) *keys.SessionKeyTable {
	tbl := keys.NewSessionKeyTable(channels, mc.Mapper().ChannelOf)
	for ch := 0; ch < channels; ch++ {
		var k [16]byte
		r.Bytes(k[:])
		tbl.SetKey(ch, k)
	}
	return tbl
}

func TestValueFuzzAgainstReference(t *testing.T) {
	// The value-carrying datapath must agree with a plain map under random
	// write/read interleavings, for every dummy design and MAC mode.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		cfg := fuzzConfig(r)
		b := bus.New(bus.DefaultConfig(1))
		mc := memctl.New(memctl.DefaultConfig(1))
		tbl := newFuzzTable(1, mc, r)
		ctrl := New(cfg, b, mc, tbl, r.Fork(2))

		ref := map[uint64]memctl.Block{}
		at := sim.Time(0)
		for i := 0; i < 80; i++ {
			addr := uint64(r.Intn(64)) * 64
			at += sim.Time(r.Intn(300)) * sim.Nanosecond
			if r.Bool() {
				var blk memctl.Block
				r.Bytes(blk[:])
				at = ctrl.WriteBlock(at, addr, at, &blk)
				ref[addr] = blk
			} else if want, ok := ref[addr]; ok {
				var got memctl.Block
				done, okr := ctrl.ReadBlock(at, addr, &got)
				if !okr || got != want {
					return false
				}
				at = done
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAuthFuzzNoSilentCorruption(t *testing.T) {
	// Under encrypt-and-MAC, a random active attacker may cause losses and
	// rejections but NEVER a silent semantic corruption: every accepted
	// command decodes to exactly what was sent. memDecode cross-checks
	// decoded (type,addr) against ground truth and counts mismatches only
	// when they are NOT flagged — so the invariant is DecodeMismatches==0.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		cfg := DefaultAuth()
		cfg.Dummy = DummyDesign(r.Intn(3))
		b := bus.New(bus.DefaultConfig(1))
		mc := memctl.New(memctl.DefaultConfig(1))
		tbl := newFuzzTable(1, mc, r)
		ctrl := New(cfg, b, mc, tbl, r.Fork(3))
		tmp := &randomTamperer{rng: r.Fork(4), prob: 0.15}
		b.SetTamperer(tmp)

		at := sim.Time(0)
		for i := 0; i < 100; i++ {
			addr := (r.Uint64() % (1 << 28)) &^ 63
			at += sim.Time(100+r.Intn(400)) * sim.Nanosecond
			if r.Bool() {
				ctrl.Read(at, addr)
			} else {
				ctrl.Write(at, addr, at)
			}
		}
		ctrl.Drain(at + sim.Microsecond)
		return ctrl.Stats().DecodeMismatches == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// randomTamperer randomly modifies, drops, or corrupts packets.
type randomTamperer struct {
	rng  *xrand.Rand
	prob float64
}

func (rt *randomTamperer) Tamper(at sim.Time, p *bus.Packet) *bus.Packet {
	if !rt.rng.Prob(rt.prob) {
		return p
	}
	cp := *p
	if len(p.Data) > 0 {
		cp.Data = append([]byte(nil), p.Data...)
	}
	switch rt.rng.Intn(3) {
	case 0:
		return nil // drop
	case 1:
		cp.CmdCipher[rt.rng.Intn(9)] ^= byte(1 + rt.rng.Intn(255))
		return &cp
	default:
		cp.MAC ^= 1 << uint(rt.rng.Intn(64))
		return &cp
	}
}
