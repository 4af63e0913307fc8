package obfus

import (
	"math"
	"reflect"
	"testing"

	"obfusmem/internal/aes"
	"obfusmem/internal/bus"
	"obfusmem/internal/md5sim"
	"obfusmem/internal/memctl"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// runOutcome is everything TestLazyCryptoMatchesEager compares between the
// runs of one design point on differently tapped buses.
type runOutcome struct {
	done     []sim.Time
	ok       []bool
	stats    Stats
	padsProc uint64
	padsMem  uint64
	energyPJ float64
	busBytes uint64
}

// runTimingPoint replays design point seed of TestTimingPathGolden's
// generator, making the same draws in the same order, without its fault
// injector. skipped reports whether the golden skips the seed; faulted
// whether it attaches a fault injector at this point. The stream runs
// only on points that are neither, on a bus tapped as tap says.
func runTimingPoint(seed uint64, tap busTap) (cfg Config, channels int, skipped, faulted bool, out runOutcome) {
	r := xrand.New(seed)
	channels = 1 << r.Intn(3)
	cfg = fuzzConfig(r)
	if r.Bool() {
		return cfg, channels, true, false, out
	}
	cfg.TimingOblivious = r.Intn(3) == 0
	if r.Bool() {
		cfg.Recovery = true
	}
	b := bus.New(bus.DefaultConfig(channels))
	mc := memctl.New(memctl.DefaultConfig(channels))
	ctrl := New(cfg, b, mc, newFuzzTable(channels, mc, r), r.Fork(1))
	if faulted = r.Bool(); faulted {
		return cfg, channels, false, true, out
	}
	tap.attach(b)
	at := sim.Time(0)
	for i := 0; i < 150; i++ {
		addr := (r.Uint64() % (1 << 29)) &^ 63
		at += sim.Time(r.Intn(400)) * sim.Nanosecond
		switch r.Intn(5) {
		case 0, 1, 2:
			done, ok := ctrl.Read(at, addr)
			out.done, out.ok = append(out.done, done), append(out.ok, ok)
		case 3:
			done := ctrl.Write(at, addr, at+sim.Time(r.Intn(2))*40*sim.Nanosecond)
			out.done, out.ok = append(out.done, done), append(out.ok, true)
		default:
			ctrl.Drain(at)
		}
	}
	ctrl.Drain(at + sim.Microsecond)
	out.stats = ctrl.Stats()
	out.padsProc, out.padsMem = ctrl.PadsProc(), ctrl.PadsMem()
	out.energyPJ = ctrl.CryptoEnergyPJ()
	out.busBytes = b.TotalBytes()
	return cfg, channels, false, false, out
}

// busTap is what a TestLazyCryptoMatchesEager run attaches to its bus.
type busTap int

const (
	tapNone     busTap = iota // a bare bus
	tapObserver               // a no-op observer, which reads the wire bytes
	tapTamperer               // a pass-through tamperer, which could alter them
)

var busTaps = [...]string{tapNone: "bare", tapObserver: "observed", tapTamperer: "tampered"}

func (tap busTap) attach(b *bus.Bus) {
	switch tap {
	case tapObserver:
		b.AttachObserver(bus.ObserverFunc(func(sim.Time, *bus.Packet) {}))
	case tapTamperer:
		b.SetTamperer(passThrough{})
	}
}

// passThrough is a tamperer that delivers every packet as sent.
type passThrough struct{}

func (passThrough) Tamper(_ sim.Time, p *bus.Packet) *bus.Packet { return p }

// TestLazyCryptoMatchesEager requires the lazy seal (no command pad, no
// request or reply MAC on a bare bus) to be indistinguishable from the
// eager one on every fault-free design point of TestTimingPathGolden's
// generator, where nothing may be detected, and every run to keep
// detecting a counter desync: the memory side's slot counter is pushed
// one slot group ahead mid-stream, and every later packet must fail its
// MAC check exactly as on a tapped bus. Each comparison runs on a bare
// bus, on one with a no-op observer and on one with a pass-through
// tamperer; a bus that can alter packets has its receivers decode and
// verify every packet in full, so the tamperer run guards that path.
func TestLazyCryptoMatchesEager(t *testing.T) {
	points := 0
	for seed, golden := uint64(1), 0; golden < 400; seed++ {
		cfg, channels, skipped, faulted, lazy := runTimingPoint(seed, tapNone)
		if skipped {
			continue
		}
		golden++
		if faulted {
			continue
		}
		points++
		for _, tap := range []busTap{tapObserver, tapTamperer} {
			_, _, _, _, eager := runTimingPoint(seed, tap)
			if !reflect.DeepEqual(lazy, eager) {
				t.Fatalf("seed %d (%d channels, %+v): bare run differs from %s run\nbare: %+v\n%s: %+v",
					seed, channels, cfg, busTaps[tap], lazy.stats, busTaps[tap], eager.stats)
			}
		}
		if lazy.stats.TamperDetected != 0 || lazy.stats.DecodeMismatches != 0 {
			t.Errorf("seed %d (%d channels, %+v): fault-free lazy run saw %d tamper detections, %d decode mismatches",
				seed, channels, cfg, lazy.stats.TamperDetected, lazy.stats.DecodeMismatches)
		}
	}
	if points < 100 {
		t.Fatalf("only %d fault-free design points", points)
	}

	desync := func(tap busTap) Stats {
		r := newRig(t, DefaultAuth(), 1)
		tap.attach(r.bus)
		at := sim.Time(0)
		for i := 0; i < 50; i++ {
			if i == 20 {
				r.ctrl.chans[0].memReqCtr += slotGroup
			}
			r.ctrl.Read(at, uint64(0x4000+64*i))
			r.ctrl.Write(at, uint64(0x8000+64*i), at)
			at += 200 * sim.Nanosecond
		}
		return r.ctrl.Stats()
	}
	lazy := desync(tapNone)
	t.Logf("%d fault-free design points; counter desync: %d tamper detections", points, lazy.TamperDetected)
	if lazy.TamperDetected == 0 {
		t.Fatal("memory-side counter pushed ahead: the bare run detected no counter desync")
	}
	for _, tap := range []busTap{tapObserver, tapTamperer} {
		if eager := desync(tap); lazy != eager {
			t.Fatalf("counter desync: bare stats %+v, %s %+v", lazy, busTaps[tap], eager)
		}
	}
}

// TestCryptoEnergyCoversEveryUnit requires CryptoEnergyPJ to be the
// energy of every pad of the four AES engines and every digest of the
// three MD5 units, the reply-verification unit included.
func TestCryptoEnergyCoversEveryUnit(t *testing.T) {
	cfg := DefaultAuth()
	cfg.Policy = PolicyUNOPT
	r := newRig(t, cfg, 2)
	at := sim.Time(0)
	for i := 0; i < 64; i++ {
		r.ctrl.Read(at, uint64(0x4000+64*i))
		r.ctrl.Write(at, uint64(0x8000+64*i), at)
		at += 200 * sim.Nanosecond
	}
	r.ctrl.Drain(at)
	var digests, verify uint64
	for _, cs := range r.ctrl.chans {
		digests += cs.procMAC.Ops() + cs.procVerMAC.Ops() + cs.memMAC.Ops()
		verify += cs.procVerMAC.Ops()
	}
	if verify == 0 {
		t.Fatal("no reply-verification digests issued")
	}
	want := float64(r.ctrl.PadsProc()+r.ctrl.PadsMem())*aes.PadEnergyPJ + float64(digests)*md5sim.MACEnergyPJ
	if got := r.ctrl.CryptoEnergyPJ(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("CryptoEnergyPJ = %.3f pJ, want %.3f (pads x %.1f + digests x %.1f)",
			got, want, aes.PadEnergyPJ, md5sim.MACEnergyPJ)
	}
}
