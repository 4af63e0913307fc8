package obfus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"obfusmem/internal/bus"
	"obfusmem/internal/fault"
	"obfusmem/internal/memctl"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// timingGolden is the digest TestTimingPathGolden pins. It covers every
// design-point combination the suite-level goldens leave out
// (timing-oblivious requests and every pair order and dummy design under
// recovery and injected faults), so a refactor of the request path that
// changes timing anywhere fails here.
const timingGolden = "6dc2cf1daff99600f0ee9528048e6603769319b0e212fb7532a070715b4cf1a0"

// TestTimingPathGolden drives random timing-only request streams through
// 400 random design points (dummy design, policy, MAC mode, pair order,
// substitute-real, timing-oblivious, recovery; 1, 2 or 4 channels; half
// of them under injected faults) and hashes every completion time and
// status, every wire transfer's time, channel, direction, size, counter
// and MAC, and the final stats, bus bytes and pad counts.
func TestTimingPathGolden(t *testing.T) {
	h := sha256.New()
	put := func(v uint64) {
		var x [8]byte
		binary.LittleEndian.PutUint64(x[:], v)
		h.Write(x[:])
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for seed, points := uint64(1), 0; points < 400; seed++ {
		r := xrand.New(seed)
		channels := 1 << r.Intn(3)
		cfg := fuzzConfig(r)
		if r.Bool() {
			// This draw once chose Section 3.3's same-size-request
			// design, since deleted; skipping the seeds where it came up
			// true keeps every other point's stream.
			continue
		}
		points++
		cfg.TimingOblivious = r.Intn(3) == 0
		if r.Bool() {
			cfg.Recovery = true
		}
		b := bus.New(bus.DefaultConfig(channels))
		mc := memctl.New(memctl.DefaultConfig(channels))
		ctrl := New(cfg, b, mc, newFuzzTable(channels, mc, r), r.Fork(1))
		if r.Bool() {
			b.SetFaultInjector(fault.New(fault.Config{LossProb: 0.02, CmdFlipProb: 0.02,
				MACFlipProb: 0.01, DataFlipProb: 0.01, StallProb: 0.01, Seed: seed}, channels, nil))
		}
		b.AttachObserver(bus.ObserverFunc(func(at sim.Time, p *bus.Packet) {
			put(uint64(at))
			put(uint64(p.Channel))
			put(uint64(p.Dir))
			put(uint64(p.WireBytes()))
			put(p.Counter)
			put(p.MAC)
			putBool(p.IsDummy)
		}))
		at := sim.Time(0)
		for i := 0; i < 150; i++ {
			addr := (r.Uint64() % (1 << 29)) &^ 63
			at += sim.Time(r.Intn(400)) * sim.Nanosecond
			switch r.Intn(5) {
			case 0, 1, 2:
				done, ok := ctrl.Read(at, addr)
				put(uint64(done))
				putBool(ok)
			case 3:
				put(uint64(ctrl.Write(at, addr, at+sim.Time(r.Intn(2))*40*sim.Nanosecond)))
			default:
				ctrl.Drain(at)
			}
		}
		ctrl.Drain(at + sim.Microsecond)
		fmt.Fprintf(h, "%+v %d %d %d", ctrl.Stats(), b.TotalBytes(), ctrl.PadsProc(), ctrl.PadsMem())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != timingGolden {
		t.Fatalf("timing path digest %s, golden %s", got, timingGolden)
	}
}
