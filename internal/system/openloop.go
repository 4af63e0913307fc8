// Open-loop scenario: the paper's Section 3.4 inter-channel cover traffic
// under arrivals that do not wait for completions.
//
// The closed-loop machine (cpu.Drive over System) issues the next request
// only after the previous one's exposed latency, one dependence chain through
// the whole run. Here every channel lane (bus port, memory controller
// channel, PCM device) draws its own arrival stream, and request i+1 arrives
// Gap after request i regardless of how long request i took.
//
// Each lane has its own front end, AES pad engines and MAC unit. That is the
// one deliberate deviation from the closed-loop machine, where the Fig 3
// front end is shared across channels (DESIGN.md §10). Inter-channel cover
// traffic is the only interaction between lanes: a lane that issues a real
// request notifies every other lane at issue + obfus.FrontEndTime, and each
// destination lane decides from its own bus-idle state and last-request
// time, via obfus.CoverNeeded (the same predicate the closed loop uses),
// whether to put a dummy pair on its wire. Cover pairs never trigger further
// covers.
//
// Arrivals and cover notifications are events on one sim.Engine: one
// arrival event per real request, plus one notification event that visits
// the peer lanes in lane order. Each lane logs its request-link and
// reply-link arrivals separately; every link is a FIFO sim.Resource, so each
// log is already in time order, and the merged wire view is a k-way merge
// of the logs in (time, channel, lane order), streamed into the digest and
// the gap histogram without being built — the report is a function of the
// configuration alone.
package system

import (
	"fmt"
	"math"

	"obfusmem/internal/aes"
	"obfusmem/internal/bus"
	"obfusmem/internal/md5sim"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// OpenLoopConfig describes an open-loop run.
type OpenLoopConfig struct {
	// Channels is the lane count (a power of two, for the address mapper).
	Channels int
	// Shards is ignored. It remains so that callers written against the
	// retired parallel engine still compile; every run is sequential.
	Shards int
	// Requests is the real-request count per lane.
	Requests int
	// Seed feeds every lane's workload stream (forked per lane).
	Seed uint64
	// Policy is the Section 3.4 inter-channel cover policy.
	Policy obfus.ChannelPolicy
	// Profiles assigns a workload to each lane, round-robin. Empty defaults
	// to the SPEC2006 set.
	Profiles []workload.Profile
	// Metrics, when non-nil, receives the bus/memctl/PCM instruments of the
	// run. The event engine itself stays uninstrumented: its wall-clock rate
	// gauges would make the snapshot nondeterministic.
	Metrics *metrics.Registry
}

// DefaultOpenLoopConfig returns an 8-channel OPT-policy run.
func DefaultOpenLoopConfig() OpenLoopConfig {
	return OpenLoopConfig{
		Channels: 8,
		Requests: 1000,
		Seed:     42,
		Policy:   obfus.PolicyOPT,
	}
}

// openWireEvent is one packet as seen on a lane's wire, recorded by the
// lane itself.
type openWireEvent struct {
	at    sim.Time
	ch    int
	seq   int // per-lane record order, the final merge tie-break
	bytes int
}

// The two links of a lane, indexing openLane.wire.
const (
	reqLink  = 0
	respLink = 1
)

// zeroPayload is the data leg of every open-loop packet. Nothing on the
// open loop's bus (no observer, tamperer or fault injector) reads packet
// contents, so all lanes share one read-only block.
var zeroPayload [bus.DataBytes]byte

// openLane is one channel subtree and its arrival stream.
type openLane struct {
	ch       int
	eng      *sim.Engine
	b        *bus.Bus
	mem      *memctl.Controller
	stream   *workload.Stream
	frontEnd *sim.Resource
	reqEng   *aes.Engine
	respEng  *aes.Engine
	mac      *md5sim.Unit
	policy   obfus.ChannelPolicy

	lastReqWire sim.Time
	issued      int
	covers      int
	latencySum  sim.Time // read-latency accumulator (ps)
	reads       int
	remaining   int // arrivals not yet fired
	packets     int // wire events recorded on both links
	wire        [2][]openWireEvent
	peers       []*openLane

	// arriveFn and notifyFn are the lane's arrive and notify method values,
	// bound once so scheduling them allocates nothing.
	arriveFn, notifyFn func(sim.Time)
	// The lane's three packets, reused by every pair: the bus keeps no
	// reference to a packet after Transfer.
	readPkt, writePkt, respPkt bus.Packet
}

// record logs one wire event on one of the lane's links. A link is a FIFO
// resource, so its arrivals never go backwards; the merge in reduceOpenLoop
// relies on that, and a log that would go backwards panics.
func (l *openLane) record(link int, at sim.Time, bytes int) {
	w := l.wire[link]
	if n := len(w); n > 0 && at < w[n-1].at {
		panic(fmt.Sprintf("system: lane %d link %d arrival %v before %v", l.ch, link, at, w[n-1].at))
	}
	l.wire[link] = append(w, openWireEvent{at: at, ch: l.ch, seq: l.packets, bytes: bytes})
	l.packets++
}

// issuePair puts one ObfusMem access pair on the lane's wire — read command,
// write command + data, read-reply data — and services the real half (if
// any) at the PCM device. It returns the read-reply delivery time. The
// crypto leg mirrors the closed-loop shape: front-end occupancy, six pad
// pre-generations for the pair, one MAC slot, then serialization.
func (l *openLane) issuePair(at sim.Time, addr uint64, write, dummy bool) sim.Time {
	fe := l.frontEnd.Acquire(at, obfus.FrontEndTime) + obfus.FrontEndTime
	encDone := l.reqEng.IssueOnly(fe, 6)
	sendReady := l.mac.Issue(encDone)

	readPkt := &l.readPkt
	*readPkt = bus.Packet{Channel: l.ch, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true,
		Type: bus.Read, Addr: addr, IsDummy: dummy || write}
	readArrive, _ := l.b.Transfer(sendReady, readPkt)
	l.record(reqLink, readArrive, readPkt.WireBytes())
	l.lastReqWire = readArrive

	writePkt := &l.writePkt
	*writePkt = bus.Packet{Channel: l.ch, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true,
		Data: zeroPayload[:], Type: bus.Write, Addr: addr, IsDummy: dummy || !write}
	writeArrive, _ := l.b.Transfer(sendReady, writePkt)
	l.record(reqLink, writeArrive, writePkt.WireBytes())

	// Memory side: decode after SerDes, service the real half, drop dummies.
	decode := readArrive + obfus.SerDesLatency
	var dataReady sim.Time
	if dummy {
		l.mem.DropDummy(decode, l.ch)
		l.mem.DropDummy(writeArrive+obfus.SerDesLatency, l.ch)
		dataReady = decode
	} else if write {
		l.mem.DropDummy(decode, l.ch)
		l.mem.AccessOnChannel(writeArrive+obfus.SerDesLatency, l.ch, addr, true)
		dataReady = decode
	} else {
		dataReady = l.mem.AccessOnChannel(decode, l.ch, addr, false)
		l.mem.DropDummy(writeArrive+obfus.SerDesLatency, l.ch)
	}

	// Read-reply leg: every pair answers the read half with a data packet
	// (dummy pairs too — the reply is part of the indistinguishable shape).
	respReady := l.respEng.IssueOnly(dataReady, 4)
	respPkt := &l.respPkt
	*respPkt = bus.Packet{Channel: l.ch, Dir: bus.MemToProc, HasMAC: true,
		Data: zeroPayload[:], Type: bus.Read, Addr: addr, IsDummy: dummy || write}
	respArrive, _ := l.b.Transfer(respReady, respPkt)
	l.record(respLink, respArrive, respPkt.WireBytes())
	return respArrive + obfus.SerDesLatency
}

// arrive fires one arrival of the lane's chain and schedules the next:
// request i+1 arrives Gap after request i (open loop — no completion
// feedback).
func (l *openLane) arrive(at sim.Time) {
	req := l.stream.Next()
	l.real(at, req.Addr, req.Write)
	l.remaining--
	if l.remaining > 0 {
		l.eng.Schedule(at+req.Gap, l.arriveFn)
	}
}

// real services one open-loop arrival and notifies the peer lanes.
func (l *openLane) real(at sim.Time, addr uint64, write bool) {
	addr = l.mem.Mapper().WithChannel(addr, l.ch)
	done := l.issuePair(at, addr, write, false)
	l.issued++
	if !write {
		l.latencySum += done - at
		l.reads++
	}
	// Cover notifications: the decision runs on each destination lane at
	// at + FrontEndTime, against that lane's own state.
	if len(l.peers) > 0 {
		l.eng.Schedule(at+obfus.FrontEndTime, l.notifyFn)
	}
}

// notify delivers one real request's cover notifications to every peer
// lane, in peer order. One event per request fires the peers' decisions
// back to back, as one event per peer at the same instant would: those
// events would take consecutive sequence numbers, and cover schedules
// nothing, so no other event could fire between them.
func (l *openLane) notify(at sim.Time) {
	for _, peer := range l.peers {
		peer.cover(at)
	}
}

// cover applies the Section 3.4 policy on this lane for a real request
// elsewhere at time at.
func (l *openLane) cover(at sim.Time) {
	if !obfus.CoverNeeded(l.policy, l.b.IdleAt(l.ch, at), l.lastReqWire, at) {
		return
	}
	l.covers++
	l.issuePair(at, l.mem.Mapper().WithChannel(0, l.ch), false, true)
}

// OpenLoopResult is one run's outcome.
type OpenLoopResult struct {
	Table      *stats.Table
	WireDigest uint64
	// GapEntropyBits is the Shannon entropy of the merged wire view's
	// inter-packet gaps (16 ns buckets): the same style of score the
	// leakage observatory computes, recomputed here so the open loop has a
	// security-sensitive observable under its golden test.
	GapEntropyBits float64
	EventsFired    uint64
}

// RunOpenLoop executes one open-loop run and reduces it to a deterministic
// report. Every reduction is ordered by channel (stats, float sums) or by
// the (time, channel, seq) wire merge.
func RunOpenLoop(cfg OpenLoopConfig) OpenLoopResult {
	if cfg.Channels <= 0 {
		panic("system: open-loop run needs at least one channel")
	}
	if cfg.Requests <= 0 {
		panic("system: open-loop run needs a positive request count")
	}
	if !cfg.Policy.Defined() {
		panic(fmt.Sprintf("system: open-loop run has undefined cover policy %v", cfg.Policy))
	}
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = workload.SPEC2006()
	}

	busCfg := bus.DefaultConfig(cfg.Channels)
	busCfg.Metrics = cfg.Metrics
	b := bus.New(busCfg)
	memCfg := memctl.DefaultConfig(cfg.Channels)
	memCfg.Metrics = cfg.Metrics
	mem := memctl.New(memCfg)
	eng := sim.NewEngine()

	rng := xrand.New(cfg.Seed ^ 0x0b5f)
	lanes := make([]*openLane, cfg.Channels)
	for ch := 0; ch < cfg.Channels; ch++ {
		var key [16]byte
		laneRng := rng.Fork(uint64(ch))
		for i := 0; i < len(key); i += 8 {
			v := laneRng.Uint64()
			for j := 0; j < 8; j++ {
				key[i+j] = byte(v >> (8 * j))
			}
		}
		cipher, err := aes.NewCipher(key[:])
		if err != nil {
			panic("system: " + err.Error())
		}
		l := &openLane{
			ch:       ch,
			eng:      eng,
			b:        b,
			mem:      mem,
			stream:   workload.NewStream(profiles[ch%len(profiles)], cfg.Seed^xrand.Mix64(uint64(ch))),
			frontEnd: sim.NewResource(fmt.Sprintf("lane%d-fe", ch)),
			reqEng:   aes.NewEngine(fmt.Sprintf("lane%d-req", ch), cipher),
			respEng:  aes.NewEngine(fmt.Sprintf("lane%d-resp", ch), cipher),
			mac:      md5sim.NewUnit(fmt.Sprintf("lane%d-mac", ch)),
			policy:   cfg.Policy,

			remaining: cfg.Requests,
			// Room for the real pairs; cover pairs grow the logs.
			wire: [2][]openWireEvent{
				reqLink:  make([]openWireEvent, 0, 2*cfg.Requests),
				respLink: make([]openWireEvent, 0, cfg.Requests),
			},
		}
		l.arriveFn, l.notifyFn = l.arrive, l.notify
		lanes[ch] = l
	}
	for _, l := range lanes {
		for _, p := range lanes {
			if p != l {
				l.peers = append(l.peers, p)
			}
		}
	}

	// Seed each lane's arrival chain.
	for _, l := range lanes {
		eng.Schedule(l.stream.Next().Gap, l.arriveFn)
	}

	eng.Run()
	return reduceOpenLoop(cfg, lanes, mem, b, eng.Fired())
}

// reduceOpenLoop folds the per-lane state into the deterministic report.
func reduceOpenLoop(cfg OpenLoopConfig, lanes []*openLane, mem *memctl.Controller, b *bus.Bus, fired uint64) OpenLoopResult {
	runs := make([][]openWireEvent, 0, 2*len(lanes))
	for _, l := range lanes {
		runs = append(runs, l.wire[reqLink], l.wire[respLink])
	}
	digest, gaps := summarizeWire(runs)

	table := stats.NewTable("Open-loop run",
		"channel", "workload", "reqs", "covers", "read lat (ns)", "wire pkts", "wire bytes", "dropped", "pcm acc")
	memStats := mem.Stats()
	busStats := b.Stats()
	totalReqs, totalCovers, totalPkts := 0, 0, 0
	var totalBytes, totalDropped, totalAcc uint64
	var latSum sim.Time
	totalReads := 0
	for ch, l := range lanes {
		avgLat := 0.0
		if l.reads > 0 {
			avgLat = float64(l.latencySum) / float64(l.reads) / float64(sim.Nanosecond)
		}
		acc := mem.Device(ch).Stats().Accesses
		table.AddRowf(1, ch, l.stream.Profile().Name, l.issued, l.covers, avgLat,
			l.packets, busStats[ch].Bytes, memStats[ch].DroppedDummies, acc)
		totalReqs += l.issued
		totalCovers += l.covers
		totalPkts += l.packets
		totalBytes += busStats[ch].Bytes
		totalDropped += memStats[ch].DroppedDummies
		totalAcc += acc
		latSum += l.latencySum
		totalReads += l.reads
	}
	avgLat := 0.0
	if totalReads > 0 {
		avgLat = float64(latSum) / float64(totalReads) / float64(sim.Nanosecond)
	}
	table.AddRowf(1, -1, "TOTAL", totalReqs, totalCovers, avgLat,
		totalPkts, totalBytes, totalDropped, totalAcc)

	entropy := gaps.EntropyBits()
	if math.IsNaN(entropy) {
		entropy = 0
	}
	table.AddNote("policy=%s requests/lane=%d seed=%d", cfg.Policy, cfg.Requests, cfg.Seed)
	table.AddNote("wire digest=%016x gap entropy=%.4f bits (16ns buckets over %d gaps)", digest, entropy, gaps.N())
	table.AddNote("per-lane front end (deviation from the shared Fig 3 front end; see DESIGN.md §10)")
	return OpenLoopResult{Table: table, WireDigest: digest, GapEntropyBits: entropy, EventsFired: fired}
}

// FNV-1a-64 parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// summarizeWire merges runs, each in (time, channel, seq) order, and folds
// the merged wire view into the report's two observables without building
// it: the FNV-1a-64 digest of every event's (time, channel, bytes) words and
// the histogram of gaps between consecutive events, in 16 ns buckets. The
// merge is a binary min-heap of run heads: O(n log k) for n events in k
// runs.
func summarizeWire(runs [][]openWireEvent) (digest uint64, gaps *stats.Hist) {
	heap := make(wireHeap, 0, len(runs))
	for r, run := range runs {
		if len(run) > 0 {
			heap = append(heap, wireHead{ev: run[0], run: r, next: 1})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		heap.down(i)
	}
	digest, gaps = fnvOffset64, stats.NewHist()
	first, prev := true, sim.Time(0)
	for len(heap) > 0 {
		top := &heap[0]
		digest = fnvWord(digest, uint64(top.ev.at))
		digest = fnvWord(digest, uint64(top.ev.ch)<<32|uint64(top.ev.bytes))
		if !first {
			gaps.Add(uint64(top.ev.at-prev) / uint64(16*sim.Nanosecond))
		}
		first, prev = false, top.ev.at
		if run := runs[top.run]; top.next < len(run) {
			top.ev = run[top.next]
			top.next++
		} else {
			last := len(heap) - 1
			heap[0] = heap[last]
			if heap = heap[:last]; last == 0 {
				break
			}
		}
		heap.down(0)
	}
	return digest, gaps
}

// fnvWord feeds v's eight little-endian bytes into the FNV-1a-64 state h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= v >> i & 0xff
		h *= fnvPrime64
	}
	return h
}

// wireHead is one run's next unmerged event, held by value so the heap
// compares events without indexing the runs.
type wireHead struct {
	ev   openWireEvent
	run  int // index of the run
	next int // index of the run's event after ev
}

// wireHeap is summarizeWire's min-heap, ordered by before.
type wireHeap []wireHead

// before orders two events in the merged wire view's (time, channel, seq)
// order. seq is unique within a channel, so the order is total.
func before(x, y *openWireEvent) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.ch != y.ch {
		return x.ch < y.ch
	}
	return x.seq < y.seq
}

// down sifts h[i] down to its place.
func (h wireHeap) down(i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && before(&h[c+1].ev, &h[c].ev) {
			c++
		}
		if !before(&h[c].ev, &x.ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
