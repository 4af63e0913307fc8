// Package attack implements the adversary of the paper's threat model
// (Section 2.1): a passive observer that taps the exposed memory bus and
// tries to recover the access pattern, and an active tamperer that
// modifies, drops, replays, or injects bus traffic.
//
// The observer works only from the wire view of packets (ciphertext command
// fields, packet sizes, channel pins, timing). Ground-truth fields are used
// solely to *score* the attacks, mirroring how the paper's security
// analysis (Section 6.1) judges what each scheme leaks.
package attack

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"obfusmem/internal/bus"
	"obfusmem/internal/chunklog"
	"obfusmem/internal/sim"
)

// pktRecord is the attacker-visible projection of one transfer, plus the
// ground truth used for scoring: 40 bytes, so a long run's wire trace stays
// small. Observe panics on a channel or wire size its narrow fields cannot
// hold.
type pktRecord struct {
	at      sim.Time
	cmd     [bus.CmdBytes]byte
	size    uint16
	channel uint8
	dir     uint8 // bus.Direction
	hasCmd  bool

	// ground truth for scoring only
	truthType  bus.ReqType
	truthDummy bool
	plaintext  bool
	truthAddr  uint64
}

// Observer is a passive bus tap. Its records sit in a chunked log, so a
// long tap allocates its 40-byte records once, never a grown copy.
type Observer struct {
	records  chunklog.Log[pktRecord]
	limit    int
	dropped  int
	channels int
}

// NewObserver returns an observer retaining up to limit packets; it counts
// the packets past the limit in Dropped.
func NewObserver(channels, limit int) *Observer {
	return &Observer{limit: limit, channels: channels}
}

// Observe implements bus.Observer.
func (o *Observer) Observe(at sim.Time, p *bus.Packet) {
	if o.records.Len() >= o.limit {
		o.dropped++
		return
	}
	size := p.WireBytes()
	if uint(p.Channel) > math.MaxUint8 || size > math.MaxUint16 {
		panic(fmt.Sprintf("attack: packet on channel %d of %d wire bytes: a tap records channels below 256 and sizes below 64 KiB",
			p.Channel, size))
	}
	o.records.Append(pktRecord{
		at:         at,
		channel:    uint8(p.Channel),
		dir:        uint8(p.Dir),
		cmd:        p.CmdCipher,
		hasCmd:     p.HasCmd,
		size:       uint16(size),
		truthType:  p.Type,
		truthAddr:  p.Addr,
		truthDummy: p.IsDummy,
		plaintext:  p.Plaintext,
	})
}

// Dropped returns the number of packets observed past the limit and not
// recorded: a scored run with drops scores a truncated wire trace.
func (o *Observer) Dropped() int { return o.dropped }

// Packets returns the number of recorded transfers.
func (o *Observer) Packets() int { return o.records.Len() }

func (r *pktRecord) direction() bus.Direction { return bus.Direction(r.dir) }

// obsKey is the attacker's canonical view of one command field: on a
// plaintext bus the attacker parses out the address (ignoring the type
// byte); on an encrypted bus all 16 bytes are opaque.
func (r *pktRecord) obsKey() [bus.CmdBytes]byte {
	if !r.plaintext {
		return r.cmd
	}
	var k [bus.CmdBytes]byte
	copy(k[:8], r.cmd[1:9])
	return k
}

// TemporalLeakage measures how much of the temporal reuse pattern is
// visible: the fraction of observed command fields that repeat an earlier
// command field. On a plaintext bus this approaches the program's true
// reuse rate; under CTR encryption it must be ~0 (Observation 1).
func (o *Observer) TemporalLeakage() float64 {
	seen := make(map[[bus.CmdBytes]byte]bool)
	repeats, total := 0, 0
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			if !r.hasCmd || r.direction() != bus.ProcToMem {
				continue
			}
			total++
			k := r.obsKey()
			if seen[k] {
				repeats++
			}
			seen[k] = true
		}
	}
	if total == 0 {
		return 0
	}
	return float64(repeats) / float64(total)
}

// FootprintEstimate returns the attacker's best estimate of the number of
// distinct blocks the program touched: the count of distinct command fields
// seen. Scored against truth by FootprintError.
func (o *Observer) FootprintEstimate() int {
	distinct := make(map[[bus.CmdBytes]byte]bool)
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			if r.hasCmd && r.direction() == bus.ProcToMem {
				distinct[r.obsKey()] = true
			}
		}
	}
	return len(distinct)
}

// TrueFootprint returns the real number of distinct non-dummy addresses.
func (o *Observer) TrueFootprint() int {
	distinct := make(map[uint64]bool)
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			if r.hasCmd && !r.truthDummy && r.direction() == bus.ProcToMem {
				distinct[r.truthAddr] = true
			}
		}
	}
	return len(distinct)
}

// FootprintError returns |estimate-truth|/truth; large is good for the
// defender.
func (o *Observer) FootprintError() float64 {
	truth := o.TrueFootprint()
	if truth == 0 {
		return 0
	}
	return math.Abs(float64(o.FootprintEstimate())-float64(truth)) / float64(truth)
}

// Shape is the attacker-visible shape of one transfer: its wire size in
// bytes above the low bit, its direction in the low bit.
type Shape int

// ShapeProfile summarises everything a size/direction attacker can extract
// from the trace: the empirical distribution over (direction, wire size)
// per observed transfer. Two workloads are distinguishable by request type
// exactly to the extent their profiles differ.
func (o *Observer) ShapeProfile() map[Shape]float64 {
	counts := make(map[Shape]int)
	total := 0
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			counts[Shape(int(r.size)<<1|int(r.dir))]++
			total++
		}
	}
	out := make(map[Shape]float64, len(counts))
	if total == 0 {
		return out
	}
	for k, n := range counts {
		out[k] = float64(n) / float64(total)
	}
	return out
}

// TotalVariation returns the total-variation distance between two
// distributions, such as two shape profiles: the attacker's maximum
// advantage (over 50/50 guessing) at telling which of two workloads
// produced a trace from that view alone. 0 means perfectly
// indistinguishable; 1 means trivially distinguishable. It sums in
// ascending key order, so the float result does not depend on map order.
func TotalVariation[K cmp.Ordered](p, q map[K]float64) float64 {
	keys := make([]K, 0, len(p)+len(q))
	for k := range p {
		keys = append(keys, k)
	}
	for k := range q {
		if _, ok := p[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	d := 0.0
	for _, k := range keys {
		d += math.Abs(p[k] - q[k])
	}
	return d / 2
}

// SpatialCorrelation measures cross-channel localisability (Section 3.4):
// the fraction of observation windows in which exactly one channel carried
// request traffic. 1.0 means every access is localisable to a channel;
// near 0 means channel activity carries no spatial signal.
func (o *Observer) SpatialCorrelation(window sim.Time) float64 {
	if o.channels <= 1 {
		return 0
	}
	type key int64
	active := make(map[key]map[int]bool)
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			if r.direction() != bus.ProcToMem {
				continue
			}
			w := key(r.at / window)
			if active[w] == nil {
				active[w] = make(map[int]bool)
			}
			active[w][int(r.channel)] = true
		}
	}
	if len(active) == 0 {
		return 0
	}
	lone := 0
	for _, chans := range active {
		if len(chans) == 1 {
			lone++
		}
	}
	return float64(lone) / float64(len(active))
}

// DictionaryAttack mounts the frequency-analysis attack that breaks ECB
// address encryption (Section 3.2): it ranks ciphertext command fields by
// frequency, ranks true addresses by frequency, assumes rank order carries
// over, and reports the fraction of accesses whose address it recovers.
// Under CTR it must recover ~nothing (every ciphertext unique).
func (o *Observer) DictionaryAttack() float64 {
	type pair struct {
		ct [bus.CmdBytes]byte
		pt uint64
	}
	type ctEnt struct {
		k [bus.CmdBytes]byte
		n int
	}
	type ptEnt struct {
		k uint64
		n int
	}
	// Count both sides, each distinct key in order of first appearance.
	ctIdx := make(map[[bus.CmdBytes]byte]int)
	ptIdx := make(map[uint64]int)
	var cts []ctEnt
	var pts []ptEnt
	var stream []pair
	for c := range o.records.Chunks() {
		for _, r := range o.records.Chunk(c) {
			if !r.hasCmd || r.direction() != bus.ProcToMem || r.truthDummy {
				continue
			}
			k := r.obsKey()
			if i, ok := ctIdx[k]; ok {
				cts[i].n++
			} else {
				ctIdx[k] = len(cts)
				cts = append(cts, ctEnt{k, 1})
			}
			if i, ok := ptIdx[r.truthAddr]; ok {
				pts[i].n++
			} else {
				ptIdx[r.truthAddr] = len(pts)
				pts = append(pts, ptEnt{r.truthAddr, 1})
			}
			stream = append(stream, pair{k, r.truthAddr})
		}
	}
	if len(stream) == 0 {
		return 0
	}
	// Rank both sides by frequency; ties break by key, so the ranking is
	// a total order.
	sort.Slice(cts, func(i, j int) bool {
		if cts[i].n != cts[j].n {
			return cts[i].n > cts[j].n
		}
		return lessCmd(cts[i].k, cts[j].k)
	})
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].n != pts[j].n {
			return pts[i].n > pts[j].n
		}
		return pts[i].k < pts[j].k
	})
	guess := make(map[[bus.CmdBytes]byte]uint64)
	for i := range cts {
		if i < len(pts) {
			guess[cts[i].k] = pts[i].k
		}
	}
	correct := 0
	for _, p := range stream {
		if guess[p.ct] == p.pt {
			correct++
		}
	}
	return float64(correct) / float64(len(stream))
}

func lessCmd(a, b [bus.CmdBytes]byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
