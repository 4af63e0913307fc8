package obfus

import (
	"testing"

	"obfusmem/internal/sim"
)

// TestBackfillCapAfterLongIdle: a request arriving after far more than
// MaxBackfill idle epochs must reconstruct exactly MaxBackfill dummy pairs
// (not one per skipped epoch), and lastEpoch must land on the request's
// quantized slot so the next request takes the following boundary.
func TestBackfillCapAfterLongIdle(t *testing.T) {
	cfg := Default()
	cfg.TimingOblivious = true
	r := newRig(t, cfg, 1)
	c := r.ctrl
	const e = Epoch

	// First request at t=0 issues in slot 1 (one pair per epoch, slot 0 is
	// "now"), with nothing to backfill.
	c.Read(0, 0x1000)
	if got := c.stats.IdleEpochFills; got != 0 {
		t.Fatalf("first request backfilled %d epochs, want 0", got)
	}
	cs := c.chans[0]
	if cs.lastEpoch != 1 {
		t.Fatalf("lastEpoch = %d after first request, want 1", cs.lastEpoch)
	}

	// Second request lands exactly on epoch boundary 200: 198 epochs sat
	// idle, far more than MaxBackfill.
	const slot = 200
	if slot-1-1 <= MaxBackfill {
		t.Fatal("test gap does not exceed MaxBackfill")
	}
	c.Read(sim.Time(slot)*e, 0x2000)
	if got := c.stats.IdleEpochFills; got != MaxBackfill {
		t.Fatalf("backfilled %d epochs, want exactly MaxBackfill = %d", got, MaxBackfill)
	}
	if got := c.stats.InterChannelPairs; got != MaxBackfill {
		t.Fatalf("injected %d dummy pairs, want %d", got, MaxBackfill)
	}
	if cs.lastEpoch != slot {
		t.Fatalf("lastEpoch = %d, want the request's quantized slot %d", cs.lastEpoch, slot)
	}

	// A third request in the same epoch must take the NEXT boundary with no
	// further backfill: lastEpoch stayed consistent with the slot clock.
	c.Read(sim.Time(slot)*e, 0x3000)
	if got := c.stats.IdleEpochFills; got != MaxBackfill {
		t.Fatalf("same-epoch request backfilled (fills now %d)", got)
	}
	if cs.lastEpoch != slot+1 {
		t.Fatalf("lastEpoch = %d after same-epoch request, want %d", cs.lastEpoch, slot+1)
	}
}

// TestBackfillExactGapUnderCap: idle gaps below the cap reconstruct one
// dummy pair per skipped epoch.
func TestBackfillExactGapUnderCap(t *testing.T) {
	cfg := Default()
	cfg.TimingOblivious = true
	r := newRig(t, cfg, 1)
	c := r.ctrl
	const e = Epoch

	c.Read(0, 0x1000) // slot 1
	const slot = 10   // skips slots 2..9: 8 idle epochs
	c.Read(sim.Time(slot)*e, 0x2000)
	if got := c.stats.IdleEpochFills; got != slot-2 {
		t.Fatalf("backfilled %d epochs, want %d", got, slot-2)
	}
	if c.chans[0].lastEpoch != slot {
		t.Fatalf("lastEpoch = %d, want %d", c.chans[0].lastEpoch, slot)
	}
}
