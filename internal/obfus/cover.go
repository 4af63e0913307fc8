package obfus

import "obfusmem/internal/sim"

// CoverNeeded is the Section 3.4 inter-channel cover decision for a single
// candidate channel, extracted so the closed-loop controller and the
// open-loop lanes apply byte-for-byte the same policy. Given the
// configured policy, whether the candidate channel's bus is idle at the
// decision instant, and the wire time of the channel's last request, it
// reports whether a dummy pair must be injected there.
//
// UNOPT covers unconditionally. OPT skips channels an observer could not
// call idle anyway (Observation 3): the bus is busy at the instant, or a
// request hit the wire within the last OPTWindow. PolicyNone never covers.
//
// The inputs are plain values rather than controller state because the
// open-loop lanes keep no ObfusMem controller: each lane passes its own bus
// idle state and last-request time.
func CoverNeeded(policy ChannelPolicy, busIdle bool, lastReqWire, at sim.Time) bool {
	if policy == PolicyNone {
		return false
	}
	recentlyActive := lastReqWire > 0 && at-lastReqWire < OPTWindow
	if policy == PolicyOPT && (!busIdle || recentlyActive) {
		return false
	}
	return true
}
