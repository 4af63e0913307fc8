package obfus

import "obfusmem/internal/sim"

// Timing-oblivious operation (Section 6.2 of the paper, left there as
// future work): "ObfusMem accesses can be made timing oblivious by spacing
// timing of requests, assuming worst timing case, and not dropping dummy
// requests."
//
// Mechanism implemented here:
//
//  1. Request pairs leave the processor only on fixed epoch boundaries, so
//     inter-arrival times carry no information.
//  2. Epochs with no real request carry a dummy pair, so the request rate
//     is constant. (The simulator reconstructs skipped epochs lazily when
//     the next request arrives, bounded by MaxBackfill; hardware would
//     just tick.)
//  3. Dummy requests are not dropped at the memory: they perform a real
//     PCM access so service timing is workload-independent.
//  4. Replies are padded to the worst-case access latency, hiding row
//     hit/miss and bank-conflict timing only while queueing inside the
//     module stays under WorstCaseAccess's margin. A reply whose bank is
//     busy for longer leaves late, so bank conflicts with the undropped
//     fixed-address dummies still shape reply times under load. On the
//     backend conformance stream (1500 requests at 150 ns arrivals), 131
//     of 1857 one-channel replies exceeded the margin, and 17-45% did at
//     2 and 4 channels.
//     TestWireInvariantUnderRelabeling therefore relabels only row and
//     column bits in this mode, not bank and rank bits.

// Epoch is the fixed issue cadence under timing-oblivious operation.
const Epoch = 100 * sim.Nanosecond

// WorstCaseAccess is the padded reply latency: a dirty-row conflict
// (150 ns write-back + 60 ns activate + 13.75 ns CAS + 5 ns burst) plus
// ~21 ns of margin for queueing inside the module. Queueing beyond the
// margin is not hidden (see item 4 above).
const WorstCaseAccess = 250 * sim.Nanosecond

// MaxBackfill bounds how many idle epochs the simulator reconstructs at
// once when a request arrives after a long gap.
const MaxBackfill = 64

// quantize returns the first epoch boundary at or after t, filling any
// intervening idle epochs on the channel with dummy pairs (constant-rate
// traffic). It returns the issue time for the real request.
func (c *Controller) quantize(cs *chanState, ch int, t sim.Time) sim.Time {
	slot := (t + Epoch - 1) / Epoch
	// One pair per epoch: a second request in the same epoch waits for
	// the next boundary.
	if slot <= cs.lastEpoch {
		slot = cs.lastEpoch + 1
	}
	// Fill idle epochs since the channel's last issue, oldest first so
	// the reconstructed traffic matches what a free-running epoch clock
	// would have produced.
	if fill := slot - cs.lastEpoch - 1; fill > 0 {
		if fill > MaxBackfill {
			fill = MaxBackfill
		}
		for k := slot - fill; k < slot; k++ {
			c.stats.IdleEpochFills++
			c.met.idleEpochFills.Inc()
			c.injectPair(k*Epoch, ch)
		}
	}
	cs.lastEpoch = slot
	return slot * Epoch
}

// padReply returns the padded data-ready time for a timing-oblivious
// reply: worst-case latency from decode, never earlier than the true
// data-ready time.
func padReply(decodeDone, dataReady sim.Time) sim.Time {
	padded := decodeDone + WorstCaseAccess
	if dataReady > padded {
		return dataReady
	}
	return padded
}
