package fault

import (
	"testing"

	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

func pkt(ch int) *bus.Packet {
	p := &bus.Packet{Channel: ch, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true,
		Data: make([]byte, bus.DataBytes), MAC: 0xDEADBEEF}
	for i := range p.CmdCipher {
		p.CmdCipher[i] = byte(i)
	}
	for i := range p.Data {
		p.Data[i] = byte(i)
	}
	return p
}

func TestZeroConfigPassesThrough(t *testing.T) {
	in := New(Config{}, 2, nil)
	p := pkt(0)
	out, delay := in.Inject(0, p)
	if out != p || delay != 0 {
		t.Fatalf("zero-rate injector touched the packet: out=%p delay=%v", out, delay)
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("zero-rate injector counted packets: %+v", s)
	}
}

func TestLossAndFlips(t *testing.T) {
	in := New(Config{LossProb: 0.2, CmdFlipProb: 0.2, DataFlipProb: 0.2, MACFlipProb: 0.2, Seed: 3}, 1, nil)
	var losses, corruptions int
	for i := 0; i < 2000; i++ {
		p := pkt(0)
		out, _ := in.Inject(sim.Time(i), p)
		switch {
		case out == nil:
			losses++
		case out != p:
			corruptions++
			// The sender's packet must never be mutated.
			if p.CmdCipher[3] != 3 || p.Data[7] != 7 || p.MAC != 0xDEADBEEF {
				t.Fatal("injector mutated the original packet")
			}
			if out.CmdCipher == p.CmdCipher && string(out.Data) == string(p.Data) && out.MAC == p.MAC {
				t.Fatal("copied packet returned without any corruption")
			}
		}
	}
	s := in.Stats()
	if losses == 0 || corruptions == 0 {
		t.Fatalf("losses=%d corruptions=%d; want both > 0 (%+v)", losses, corruptions, s)
	}
	if s.Losses != uint64(losses) {
		t.Fatalf("Stats.Losses = %d, observed %d", s.Losses, losses)
	}
	if s.Packets != 2000 {
		t.Fatalf("Stats.Packets = %d, want 2000", s.Packets)
	}
	// Roughly-binomial sanity: at 20% each, nothing should be wildly off.
	if s.Losses < 200 || s.Losses > 600 {
		t.Fatalf("loss count %d far from the 20%% rate", s.Losses)
	}
}

func TestStallDelaysDelivery(t *testing.T) {
	in := New(Config{StallProb: 1, Seed: 7}, 1, nil)
	p := pkt(0)
	out, delay := in.Inject(0, p)
	if out != p {
		t.Fatal("a pure stall must not corrupt the packet")
	}
	if delay <= 0 || delay > StallMax {
		t.Fatalf("stall delay %v outside (0, %v]", delay, StallMax)
	}
	if s := in.Stats(); s.Stalls != 1 || s.StallPS != uint64(delay) {
		t.Fatalf("stall stats %+v", s)
	}
}

// TestDeterministicPerChannel: each channel's fault sequence depends only
// on the seed and that channel's own packet order, not on how traffic
// interleaves across channels.
func TestDeterministicPerChannel(t *testing.T) {
	cfg := Config{LossProb: 0.3, CmdFlipProb: 0.3, Seed: 11}
	outcome := func(in *Injector, ch, n int) []bool {
		var lost []bool
		for i := 0; i < n; i++ {
			out, _ := in.Inject(0, pkt(ch))
			lost = append(lost, out == nil)
		}
		return lost
	}
	a := New(cfg, 2, nil)
	seqA := outcome(a, 1, 100)

	b := New(cfg, 2, nil)
	// Interleave channel-0 traffic; channel 1's sequence must not change.
	var seqB []bool
	for i := 0; i < 100; i++ {
		b.Inject(0, pkt(0))
		out, _ := b.Inject(0, pkt(1))
		seqB = append(seqB, out == nil)
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("channel 1 outcome %d changed with channel 0 interleaving", i)
		}
	}
}
