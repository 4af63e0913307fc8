package obfus

import (
	"errors"
	"testing"

	"obfusmem/internal/fault"
	"obfusmem/internal/memctl"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// authRecovery is the paper's authenticated design point with the recovery
// protocol on.
func authRecovery() Config {
	cfg := DefaultAuth()
	cfg.Recovery = true
	return cfg
}

// driveMix issues n read/write rounds over a small hot set and drains.
func driveMix(c *Controller, n int, seed uint64) (reads, readOKs int) {
	r := xrand.New(seed)
	var at sim.Time
	for i := 0; i < n; i++ {
		addr := uint64(r.Intn(64)) * 64
		if r.Prob(0.3) {
			at = c.Write(at, addr, at)
		} else {
			done, ok := c.Read(at, addr)
			reads++
			if ok {
				readOKs++
			}
			at = done
		}
		at += 5 * sim.Nanosecond
	}
	c.Drain(at)
	return reads, readOKs
}

func TestRecoveryFromLoss(t *testing.T) {
	r := newRig(t, authRecovery(), 1)
	inj := fault.New(fault.Config{LossProb: 0.02, Seed: 9}, 1, nil)
	r.bus.SetFaultInjector(inj)

	reads, readOKs := driveMix(r.ctrl, 400, 11)
	st := r.ctrl.Stats()
	if inj.Stats().Losses == 0 {
		t.Fatal("injector dropped nothing; test is vacuous")
	}
	if st.Recovered == 0 || st.Retransmits == 0 || st.Resyncs == 0 {
		t.Fatalf("no recovery activity despite losses: %+v", st)
	}
	if readOKs != reads {
		t.Fatalf("%d of %d reads failed despite recovery (quarantines=%d)",
			reads-readOKs, reads, st.Quarantines)
	}
	if got := st.UnaccountedFailures(); got != 0 {
		t.Fatalf("UnaccountedFailures = %d, want 0 (FailedLegs=%d QuarantinedRequests=%d)",
			got, st.FailedLegs, st.QuarantinedRequests)
	}
}

func TestRecoveryFromCorruption(t *testing.T) {
	r := newRig(t, authRecovery(), 2)
	inj := fault.New(fault.Config{CmdFlipProb: 0.02, MACFlipProb: 0.02, StallProb: 0.01, Seed: 5}, 2, nil)
	r.bus.SetFaultInjector(inj)

	reads, readOKs := driveMix(r.ctrl, 400, 13)
	st := r.ctrl.Stats()
	fs := inj.Stats()
	if fs.CmdFlips+fs.MACFlips == 0 {
		t.Fatal("injector flipped nothing; test is vacuous")
	}
	// A flipped command or MAC fails verification at the memory, which must
	// NACK rather than silently reject.
	if st.NACKsSent == 0 {
		t.Fatalf("corrupted commands produced no NACKs: %+v", st)
	}
	if readOKs != reads {
		t.Fatalf("%d of %d reads failed despite recovery", reads-readOKs, reads)
	}
	if got := st.UnaccountedFailures(); got != 0 {
		t.Fatalf("UnaccountedFailures = %d, want 0", got)
	}
}

// TestRecoveryAccountingInvariant is the acceptance-criterion invariant:
// with fault injection on, every real request either completes or is
// refused against an explicit quarantine event — never silently lost.
func TestRecoveryAccountingInvariant(t *testing.T) {
	rates := []float64{1e-4, 1e-3, 1e-2, 0.05}
	if testing.Short() {
		rates = []float64{1e-3, 0.05}
	}
	for _, rate := range rates {
		r := newRig(t, authRecovery(), 2)
		inj := fault.New(fault.Uniform(rate, 77), 2, nil)
		r.bus.SetFaultInjector(inj)
		driveMix(r.ctrl, 600, 21)
		st := r.ctrl.Stats()
		if got := st.UnaccountedFailures(); got != 0 {
			t.Errorf("rate %g: UnaccountedFailures = %d (FailedLegs=%d QuarantinedRequests=%d)",
				rate, got, st.FailedLegs, st.QuarantinedRequests)
		}
		if st.FailedLegs > 0 && len(r.ctrl.QuarantineEvents()) == 0 {
			t.Errorf("rate %g: %d failed legs without a quarantine event", rate, st.FailedLegs)
		}
	}
}

func TestQuarantineAfterRetryExhaustion(t *testing.T) {
	r := newRig(t, authRecovery(), 1)
	// A dead link: everything is lost, so the first request must exhaust
	// its budget and fail-stop the channel.
	r.bus.SetFaultInjector(fault.New(fault.Config{LossProb: 1, Seed: 1}, 1, nil))

	_, ok := r.ctrl.Read(0, 0x40)
	if ok {
		t.Fatal("read succeeded on a dead link")
	}
	st := r.ctrl.Stats()
	if st.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", st.Quarantines)
	}
	if !r.ctrl.Quarantined(0) {
		t.Fatal("channel 0 not marked quarantined")
	}

	var cerr *ChannelError
	if err := r.ctrl.Err(); err == nil || !errors.As(err, &cerr) {
		t.Fatalf("Err() = %v, want *ChannelError", err)
	} else if len(cerr.Events) != 1 || cerr.Events[0].Channel != 0 || cerr.Events[0].Attempts != RetryBudget {
		t.Fatalf("events = %+v", cerr.Events)
	}

	// Later traffic is refused instantly and accounted, with no new wire
	// activity on the dead channel.
	packets := r.bus.Stats()[0].Packets
	before := r.ctrl.Stats()
	if _, ok := r.ctrl.Read(1000, 0x80); ok {
		t.Fatal("read accepted on a quarantined channel")
	}
	r.ctrl.Write(2000, 0xC0, 2000)
	r.ctrl.Drain(3000)
	after := r.ctrl.Stats()
	if r.bus.Stats()[0].Packets != packets {
		t.Fatal("quarantined channel still carried packets")
	}
	newFailed := after.FailedLegs - before.FailedLegs
	newQuarantined := after.QuarantinedRequests - before.QuarantinedRequests
	if newFailed == 0 || newFailed != newQuarantined {
		t.Fatalf("post-quarantine refusals not accounted: failed=%d quarantined=%d",
			newFailed, newQuarantined)
	}
	if after.UnaccountedFailures() != 0 {
		t.Fatalf("UnaccountedFailures = %d, want 0", after.UnaccountedFailures())
	}
}

// TestRecoveryZeroFaultNoOverhead: with no faults injected, the recovery
// protocol must be invisible — identical completion times, identical wire
// traffic, identical crypto work. This is the PR's zero-overhead guarantee,
// checked exactly rather than within noise.
func TestRecoveryZeroFaultNoOverhead(t *testing.T) {
	base := newRig(t, DefaultAuth(), 2)
	rec := newRig(t, authRecovery(), 2)

	r1 := xrand.New(3)
	r2 := xrand.New(3)
	var at1, at2 sim.Time
	for i := 0; i < 300; i++ {
		addr := uint64(r1.Intn(128)) * 64
		if addr != uint64(r2.Intn(128))*64 {
			t.Fatal("trace streams diverged")
		}
		if i%3 == 0 {
			at1 = base.ctrl.Write(at1, addr, at1)
			at2 = rec.ctrl.Write(at2, addr, at2)
		} else {
			d1, ok1 := base.ctrl.Read(at1, addr)
			d2, ok2 := rec.ctrl.Read(at2, addr)
			if d1 != d2 || ok1 != ok2 {
				t.Fatalf("request %d diverged: base (%v, %v) vs recovery (%v, %v)", i, d1, ok1, d2, ok2)
			}
			at1, at2 = d1, d2
		}
		if at1 != at2 {
			t.Fatalf("request %d: completion diverged %v vs %v", i, at1, at2)
		}
		at1 += 3 * sim.Nanosecond
		at2 += 3 * sim.Nanosecond
	}
	base.ctrl.Drain(at1)
	rec.ctrl.Drain(at2)

	bst, rst := base.ctrl.Stats(), rec.ctrl.Stats()
	if bst != rst {
		t.Fatalf("stats diverged with zero faults:\nbase     %+v\nrecovery %+v", bst, rst)
	}
	bb, rb := base.bus.TotalBytes(), rec.bus.TotalBytes()
	if bb != rb {
		t.Fatalf("wire traffic diverged: %d vs %d bytes", bb, rb)
	}
	if base.ctrl.PadsProc() != rec.ctrl.PadsProc() || base.ctrl.PadsMem() != rec.ctrl.PadsMem() {
		t.Fatal("pad counts diverged with zero faults")
	}
}

// TestRecoveryValueRoundTrip drives the value-carrying datapath through a
// lossy link: retransmission and counter resync must deliver bit-exact
// blocks, not just timing. The subtest name marks the split-pair request
// design, the only one the controller implements.
func TestRecoveryValueRoundTrip(t *testing.T) {
	t.Run("symmetric=false", recoveryValueRoundTrip)
}

func recoveryValueRoundTrip(t *testing.T) {
	r := newRig(t, authRecovery(), 1)
	inj := fault.New(fault.Config{LossProb: 0.03, Seed: 4}, 1, nil)
	r.bus.SetFaultInjector(inj)

	rng := xrand.New(8)
	blocks := make(map[uint64]memctl.Block)
	var at sim.Time
	for i := 0; i < 64; i++ {
		addr := uint64(i) * 64
		var blk memctl.Block
		rng.Bytes(blk[:])
		blocks[addr] = blk
		at = r.ctrl.WriteBlock(at, addr, at, &blk) + sim.Nanosecond
	}
	if inj.Stats().Losses == 0 {
		t.Fatal("no losses injected; test is vacuous")
	}
	for addr, want := range blocks {
		var got memctl.Block
		done, ok := r.ctrl.ReadBlock(at, addr, &got)
		if !ok {
			t.Fatalf("ReadBlock(%#x) failed (quarantines=%d)", addr, r.ctrl.Stats().Quarantines)
		}
		if got != want {
			t.Fatalf("ReadBlock(%#x) returned corrupted block after recovery", addr)
		}
		at = done + sim.Nanosecond
	}
	if st := r.ctrl.Stats(); st.Recovered == 0 {
		t.Fatalf("no recoveries exercised: %+v", st)
	}
}

// TestRecoveryOffPreservesDetectionSemantics: with recovery disabled the
// controller must behave exactly as before this protocol existed — detect,
// reject, and report the failure (now also tallied in FailedLegs).
func TestRecoveryOffPreservesDetectionSemantics(t *testing.T) {
	r := newRig(t, DefaultAuth(), 1)
	r.bus.SetFaultInjector(fault.New(fault.Config{CmdFlipProb: 0.05, Seed: 2}, 1, nil))

	reads, readOKs := driveMix(r.ctrl, 200, 19)
	st := r.ctrl.Stats()
	if st.TamperDetected == 0 {
		t.Fatal("corruption went undetected")
	}
	if readOKs == reads {
		t.Fatal("every read succeeded; faults had no effect")
	}
	if st.Retransmits != 0 || st.NACKsSent != 0 || st.Resyncs != 0 || st.Quarantines != 0 {
		t.Fatalf("recovery activity while disabled: %+v", st)
	}
	if st.FailedLegs == 0 || st.QuarantinedRequests != 0 {
		t.Fatalf("failure accounting wrong with recovery off: %+v", st)
	}
}
