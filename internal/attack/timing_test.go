package attack

import (
	"math"
	"testing"

	"obfusmem/internal/bus"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// driveReads pushes a read stream with the given inter-arrival generator
// through an ObfusMem rig with an observer attached.
func driveReads(t *testing.T, cfg obfus.Config, n int, seed uint64, gap func(r *xrand.Rand) sim.Time) *Observer {
	t.Helper()
	b, _, ctrl := newObfusRig(t, cfg, 1)
	obs := NewObserver(1, 1<<20)
	b.AttachObserver(obs)
	r := xrand.New(seed)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += gap(r)
		ctrl.Read(at, (r.Uint64()%(1<<28))&^63)
	}
	return obs
}

func TestTimingLeaksWithoutObliviousness(t *testing.T) {
	// Two programs with different request cadence are trivially
	// distinguishable from timing under plain ObfusMem.
	fast := driveReads(t, obfus.Default(), 400, 1, func(r *xrand.Rand) sim.Time {
		return sim.Nanos(r.Exp(50))
	})
	slow := driveReads(t, obfus.Default(), 400, 2, func(r *xrand.Rand) sim.Time {
		return sim.Nanos(r.Exp(400))
	})
	d := TimingDistance(fast, slow, 25*sim.Nanosecond)
	if d < 0.5 {
		t.Fatalf("timing distance %v between fast/slow programs, want high (leak exists)", d)
	}
	if reg := fast.TimingRegularity(25 * sim.Nanosecond); reg > 0.9 {
		t.Fatalf("bursty traffic regularity %v, want low", reg)
	}
}

func TestTimingObliviousRemovesLeak(t *testing.T) {
	cfg := obfus.Default()
	cfg.TimingOblivious = true
	fast := driveReads(t, cfg, 300, 3, func(r *xrand.Rand) sim.Time {
		return sim.Nanos(r.Exp(120))
	})
	slow := driveReads(t, cfg, 300, 4, func(r *xrand.Rand) sim.Time {
		return sim.Nanos(r.Exp(900))
	})
	// Request stream is epoch-quantised with idle epochs filled: the
	// modal inter-arrival dominates and the two programs look alike.
	regF := fast.TimingRegularity(25 * sim.Nanosecond)
	regS := slow.TimingRegularity(25 * sim.Nanosecond)
	if regF < 0.8 || regS < 0.8 {
		t.Fatalf("timing-oblivious regularity = %v / %v, want ~1", regF, regS)
	}
	d := TimingDistance(fast, slow, 25*sim.Nanosecond)
	if d > 0.15 {
		t.Fatalf("timing distance %v under oblivious mode, want ~0", d)
	}
}

func TestTimingObliviousCosts(t *testing.T) {
	// The extension is not free: dummies hit PCM and idle epochs carry
	// traffic.
	cfg := obfus.Default()
	cfg.TimingOblivious = true
	b, mc, ctrl := newObfusRig(t, cfg, 1)
	_ = b
	r := xrand.New(5)
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		at += sim.Nanos(r.Exp(500)) // sparse traffic: many idle epochs
		done, ok := ctrl.Read(at, (r.Uint64()%(1<<28))&^63)
		if !ok {
			t.Fatalf("read %d failed", i)
		}
		if done < at {
			t.Fatalf("done %v before issue %v", done, at)
		}
	}
	st := ctrl.Stats()
	if st.IdleEpochFills == 0 {
		t.Fatal("no idle epochs were filled")
	}
	if st.DroppedAtMemory != 0 {
		t.Fatal("timing-oblivious mode dropped dummies at memory")
	}
	if st.DummyPCMWrites == 0 || st.DummyPCMReads == 0 {
		t.Fatalf("dummies did not access PCM: %+v", st)
	}
	if mc.TotalPCMStats().BlockWrites == 0 {
		t.Fatal("no PCM write traffic from dummy writes")
	}
}

func TestTimingObliviousRepliesWorstCase(t *testing.T) {
	cfg := obfus.Default()
	cfg.TimingOblivious = true
	b, _, ctrl := newObfusRig(t, cfg, 1)
	var replyGaps []sim.Time
	var reqAt sim.Time
	b.AttachObserver(bus.ObserverFunc(func(at sim.Time, p *bus.Packet) {
		if p.Dir == bus.ProcToMem && p.Type == bus.Read && !p.IsDummy {
			reqAt = at
		}
		if p.Dir == bus.MemToProc && !p.IsDummy {
			replyGaps = append(replyGaps, at-reqAt)
		}
	}))
	at := sim.Time(0)
	r := xrand.New(6)
	for i := 0; i < 100; i++ {
		at += 600 * sim.Nanosecond
		// Alternate row-hit and row-miss patterns: reply timing must not
		// reveal which is which.
		addr := uint64(0x1000)
		if i%2 == 0 {
			addr = (r.Uint64() % (1 << 28)) &^ 63
		}
		ctrl.Read(at, addr)
	}
	if len(replyGaps) < 50 {
		t.Fatalf("observed %d replies", len(replyGaps))
	}
	min, max := replyGaps[0], replyGaps[0]
	for _, g := range replyGaps {
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	// All padded to worst case: the spread collapses.
	if max-min > 20*sim.Nanosecond {
		t.Fatalf("reply-time spread %v under padding, want tight", max-min)
	}
	if min < obfus.WorstCaseAccess {
		t.Fatalf("reply arrived %v after request, below worst-case %v", min, obfus.WorstCaseAccess)
	}
}

// TestDistancesBitReproducible repeats TotalVariation and TimingDistance on
// fixed inputs with many keys and requires bit-identical results: a sum in
// map iteration order rounds differently from call to call.
func TestDistancesBitReproducible(t *testing.T) {
	r := xrand.New(11)
	p, q := make(map[Shape]float64), make(map[Shape]float64)
	for k := 0; k < 40; k++ {
		p[Shape(k)] = r.Float64() / 40
		if k%3 != 0 {
			q[Shape(k+1)] = r.Float64() / 40
		}
	}
	// Two request streams whose inter-arrival gaps spread over ~80 bins.
	stream := func(seed uint64) *Observer {
		o := NewObserver(1, 1<<12)
		r := xrand.New(seed)
		at := sim.Time(0)
		for i := 0; i < 2000; i++ {
			at += 6*sim.Nanosecond + sim.Time(r.Intn(int(2*sim.Microsecond)))
			o.Observe(at, &bus.Packet{Dir: bus.ProcToMem})
		}
		return o
	}
	a, b := stream(1), stream(2)
	bin := 25 * sim.Nanosecond
	tv, td := TotalVariation(p, q), TimingDistance(a, b, bin)
	for i := 0; i < 200; i++ {
		if got := TotalVariation(p, q); math.Float64bits(got) != math.Float64bits(tv) {
			t.Fatalf("TotalVariation call %d = %v, first call %v", i, got, tv)
		}
		if got := TimingDistance(a, b, bin); math.Float64bits(got) != math.Float64bits(td) {
			t.Fatalf("TimingDistance call %d = %v, first call %v", i, got, td)
		}
	}
}
