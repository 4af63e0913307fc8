package attack

import (
	"sort"

	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

// Timing side-channel analysis (paper Section 6.2): even with contents,
// addresses, types, and channels obfuscated, the *times* at which requests
// appear can fingerprint a program. These metrics quantify that leakage
// and verify the timing-oblivious extension removes it.

// eventClusterWindow collapses the back-to-back packets of one request
// pair into a single observed "event", the natural preprocessing any
// timing attacker applies.
const eventClusterWindow = 5 * sim.Nanosecond

// interArrivals collects request-direction event inter-arrival times on
// one channel (all channels when ch < 0).
func (o *Observer) interArrivals(ch int) []sim.Time {
	var times []sim.Time
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			if r.direction() != bus.ProcToMem {
				continue
			}
			if ch >= 0 && int(r.channel) != ch {
				continue
			}
			times = append(times, r.at)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	// Cluster into events.
	var events []sim.Time
	for _, t := range times {
		if len(events) == 0 || t-events[len(events)-1] > eventClusterWindow {
			events = append(events, t)
		}
	}
	out := make([]sim.Time, 0, len(events))
	for i := 1; i < len(events); i++ {
		out = append(out, events[i]-events[i-1])
	}
	return out
}

// InterArrivalHistogram returns the binned distribution of request
// inter-arrival times (bin width in picoseconds), normalised to sum to 1.
func (o *Observer) InterArrivalHistogram(bin sim.Time) map[int64]float64 {
	bin = binOrDefault(bin)
	gaps := o.interArrivals(-1)
	out := make(map[int64]float64)
	if len(gaps) == 0 {
		return out
	}
	for _, g := range gaps {
		out[int64(g/bin)] += 1
	}
	for k := range out {
		out[k] /= float64(len(gaps))
	}
	return out
}

// TimingRegularity returns the probability mass of the modal inter-arrival
// bin: ~1.0 for a fixed-cadence (timing-oblivious) stream, low for bursty
// program-driven traffic.
func (o *Observer) TimingRegularity(bin sim.Time) float64 {
	bin = binOrDefault(bin)
	gaps := o.interArrivals(-1)
	if len(gaps) == 0 {
		return 0
	}
	counts := make(map[int64]int)
	best := 0
	for _, g := range gaps {
		k := int64(g / bin)
		counts[k]++
		best = max(best, counts[k])
	}
	return float64(best) / float64(len(gaps))
}

// binOrDefault returns bin, or 10 ns when bin is not positive.
func binOrDefault(bin sim.Time) sim.Time {
	if bin <= 0 {
		return 10 * sim.Nanosecond
	}
	return bin
}

// TimingDistance returns the total-variation distance between two traces'
// inter-arrival distributions: the attacker's advantage at telling which of
// two programs produced a trace from timing alone.
func TimingDistance(a, b *Observer, bin sim.Time) float64 {
	return TotalVariation(a.InterArrivalHistogram(bin), b.InterArrivalHistogram(bin))
}
