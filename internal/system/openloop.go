// Open-loop scenario: the paper's Section 3.4 inter-channel cover traffic
// under arrivals that do not wait for completions.
//
// The closed-loop machine (cpu.Drive over System) issues the next request
// only after the previous one's exposed latency, one dependence chain through
// the whole run. Here every channel lane (bus port, memory controller
// channel, PCM device) draws its own arrival stream, and request i+1 arrives
// Gap after request i regardless of how long request i took.
//
// Each lane has its own front end, AES pad pipelines and MAC unit. Three
// deviations from the closed-loop machine follow (DESIGN.md §10), kept
// because fixing them changes every open-loop digest: the Fig 3 front end
// is per lane instead of shared across channels; each lane has one 4 ns
// AES lane whose full 96 ns latency sits on the path (116 ns for a pair's
// 6 pads, 108 ns for a reply's 4), where the closed loop pre-generates pads
// on four interleaved lanes and exposes only backlog plus a 0.5 ns XOR; and
// the MAC issues after encryption, adding 64 ns where the closed-loop
// default exposes 8 ns. With idle engines the last two add about 280 ns
// per read. ROADMAP item 9 removes all three.
//
// Inter-channel cover traffic is the only interaction between lanes: a lane
// that issues a real request notifies every other lane at issue +
// obfus.FrontEndTime, and each destination lane decides from its own
// bus-idle state and last-request time, via obfus.CoverNeeded (the same
// predicate the closed loop uses), whether to put a dummy pair on its wire.
// Cover pairs never trigger further covers.
//
// Arrivals and cover notifications are events on one sim.Engine: one
// arrival event per real request, plus one notification event that visits
// the peer lanes in lane order. Each lane logs its request-link and
// reply-link arrivals separately, 16 bytes per packet (time, per-lane
// sequence number, size; the channel is the log's position in the run
// list), in chunks that are never copied. Every link is a FIFO
// sim.Resource, so each log is already in time order, and the merged wire
// view is a loser-tree merge of the logs in (time, channel, lane order),
// streamed into the digest and the gap histogram without being built — the
// report is a function of the configuration alone.
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
// lane itself. It carries no channel: summarizeWire reads a log's channel
// from the log's position in its run list. RunOpenLoop bounds a lane's
// packet count, so seq fits in 32 bits.
type openWireEvent struct {
	at    sim.Time
	seq   int32 // per-lane record order, the final merge tie-break
	bytes int32
}

// The two links of a lane, indexing openLane.wire and openLane.full.
const (
	reqLink  = 0
	respLink = 1
)

// wireChunk is the largest chunk of a link's log, in events (16 KiB). A
// lane's cover pairs outnumber its real pairs by a factor that depends on
// the policy and the peers' traffic, so a log cannot be sized up front.
// RunOpenLoop sizes a link's first chunk for its real pairs; when a chunk
// fills, the log allocates one twice its size, up to wireChunk, and never
// copies one.
const wireChunk = 1024

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
	reqPads  *sim.Pipeline // AES pad timing only: no lane pad is ever XORed
	respPads *sim.Pipeline
	mac      *sim.Pipeline // MD5 digest timing
	policy   obfus.ChannelPolicy

	lastReqWire sim.Time
	issued      int
	covers      int
	latencySum  sim.Time // read-latency accumulator (ps)
	reads       int
	remaining   int // arrivals not yet fired
	packets     int // wire events recorded on both links
	// Each link's log: wire[link] is the chunk being filled and
	// full[link] the full chunks before it, oldest first.
	wire  [2][]openWireEvent
	full  [2][][]openWireEvent
	peers []*openLane

	// arriveFn and notifyFn are the lane's arrive and notify method values,
	// bound once so scheduling them allocates nothing.
	arriveFn, notifyFn func(sim.Time)
	// The lane's three packets, built once and reused by every pair, which
	// sets only Addr and IsDummy: the bus keeps no reference to a packet
	// after Transfer.
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
	if len(w) == cap(w) {
		size := wireChunk
		if cap(w) > 0 {
			l.full[link] = append(l.full[link], w)
			size = min(wireChunk, 2*cap(w))
		}
		w = make([]openWireEvent, 0, size)
	}
	l.wire[link] = append(w, openWireEvent{at: at, seq: int32(l.packets), bytes: int32(bytes)})
	l.packets++
}

// issuePair puts one ObfusMem access pair on the lane's wire — read command,
// write command + data, read-reply data — and services the real half (if
// any) at the PCM device. It returns the read-reply delivery time. The
// crypto leg mirrors the closed-loop shape: front-end occupancy, six pad
// pre-generations for the pair, one MAC slot, then serialization.
func (l *openLane) issuePair(at sim.Time, addr uint64, write, dummy bool) sim.Time {
	fe := l.frontEnd.Acquire(at, obfus.FrontEndTime) + obfus.FrontEndTime
	encDone := l.reqPads.IssueN(fe, 6)
	sendReady := l.mac.Issue(encDone)

	readPkt := &l.readPkt
	readPkt.Addr, readPkt.IsDummy = addr, dummy || write
	readArrive, _ := l.b.Transfer(sendReady, readPkt)
	l.record(reqLink, readArrive, readPkt.WireBytes())
	l.lastReqWire = readArrive

	writePkt := &l.writePkt
	writePkt.Addr, writePkt.IsDummy = addr, dummy || !write
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
	respReady := l.respPads.IssueN(dataReady, 4)
	respPkt := &l.respPkt
	respPkt.Addr, respPkt.IsDummy = addr, dummy || write
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
	// A lane puts at most 3 packets on its wire per real request anywhere
	// in the run: its own pairs and one cover pair per peer request. Its
	// wire events number their packets in 32 bits.
	if cfg.Requests > math.MaxInt32/3/cfg.Channels {
		panic(fmt.Sprintf("system: open-loop run of %d lanes x %d requests exceeds %d wire packets per lane",
			cfg.Channels, cfg.Requests, math.MaxInt32))
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

	// Each link's chunk list starts with room for linkChunks chunks, all
	// lists carved from one allocation.
	const linkChunks = 4
	lists := make([][]openWireEvent, 2*linkChunks*cfg.Channels)
	lanes := make([]*openLane, cfg.Channels)
	for ch := 0; ch < cfg.Channels; ch++ {
		req, resp := 2*ch*linkChunks, (2*ch+1)*linkChunks
		l := &openLane{
			ch:       ch,
			eng:      eng,
			b:        b,
			mem:      mem,
			stream:   workload.NewStream(profiles[ch%len(profiles)], cfg.Seed^xrand.Mix64(uint64(ch))),
			frontEnd: sim.NewResource(),
			reqPads:  sim.NewPipeline(aes.EngineLatency, aes.EngineCycle),
			respPads: sim.NewPipeline(aes.EngineLatency, aes.EngineCycle),
			mac:      sim.NewPipeline(md5sim.UnitLatency, md5sim.UnitCycle),
			policy:   cfg.Policy,

			remaining: cfg.Requests,
			// First chunks sized for the real pairs.
			wire: [2][]openWireEvent{
				reqLink:  make([]openWireEvent, 0, min(wireChunk, 2*cfg.Requests)),
				respLink: make([]openWireEvent, 0, min(wireChunk, cfg.Requests)),
			},
			full: [2][][]openWireEvent{
				reqLink:  lists[req:req:resp],
				respLink: lists[resp : resp : resp+linkChunks],
			},
		}
		l.arriveFn, l.notifyFn = l.arrive, l.notify
		l.readPkt = bus.Packet{Channel: ch, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true, Type: bus.Read}
		l.writePkt = bus.Packet{Channel: ch, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true,
			Data: zeroPayload[:], Type: bus.Write}
		l.respPkt = bus.Packet{Channel: ch, Dir: bus.MemToProc, HasMAC: true, Data: zeroPayload[:], Type: bus.Read}
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
	// Lane-major (request link, reply link): run r is lane r/2's, its
	// chunks in record order.
	runs := make([][][]openWireEvent, 0, 2*len(lanes))
	for _, l := range lanes {
		for link, last := range l.wire {
			run := l.full[link]
			if len(last) > 0 {
				run = append(run, last)
			}
			runs = append(runs, run)
		}
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

// summarizeWire merges runs, lane-major (request link, reply link) so that
// run r holds channel r/2's events, each in (time, seq) order in a list of
// non-empty chunks, and folds the merged wire view into the report's two
// observables without building it: the FNV-1a-64 digest of every event's
// (time, channel, bytes) words and the histogram of gaps between
// consecutive events, in 16 ns buckets. The merge order is (time, channel,
// seq). It runs on a loser tree over run indices: each of an event's
// O(log k) levels makes one comparison and moves an index, never an event.
// Each run's cursor is a chunk and an index in it.
func summarizeWire(runs [][][]openWireEvent) (digest uint64, gaps *stats.Hist) {
	digest, gaps = fnvOffset64, stats.NewHist()
	k, n := len(runs), 0
	for _, run := range runs {
		for _, chunk := range run {
			n += len(chunk)
		}
	}
	if n == 0 {
		return digest, gaps
	}

	// heads[r] is run r's next unmerged event; an exhausted run's head sits
	// at the end of time, behind every real event.
	heads := make([]openWireEvent, k)
	chunk, next := make([]int, k), make([]int, k)
	for r, run := range runs {
		heads[r].at = math.MaxInt64
		if len(run) > 0 {
			heads[r] = run[0][0]
		}
	}

	// Nodes 1..k-1 of an implicit binary tree, whose leaves k..2k-1 are the
	// runs, hold the run that lost the match at that node; the winner of
	// the whole tree is w. win is build scratch: each node's winner.
	tree := make([]int, k)
	win := make([]int, 2*k)
	for r := range runs {
		win[k+r] = r
	}
	for i := k - 1; i >= 1; i-- {
		a, b := win[2*i], win[2*i+1]
		if wireBefore(heads, b, a) {
			a, b = b, a
		}
		win[i], tree[i] = a, b
	}
	w := win[1]

	for {
		ev := heads[w]
		digest = fnvWord(digest, uint64(ev.at))
		digest = fnvWord(digest, uint64(w>>1)<<32|uint64(ev.bytes))
		if n--; n == 0 {
			break
		}
		// Advance the winner's run and replay its path to the root.
		run := runs[w]
		if next[w]++; next[w] == len(run[chunk[w]]) {
			chunk[w], next[w] = chunk[w]+1, 0
		}
		if chunk[w] < len(run) {
			heads[w] = run[chunk[w]][next[w]]
		} else {
			heads[w].at = math.MaxInt64
		}
		for i := (k + w) >> 1; i > 0; i >>= 1 {
			if wireBefore(heads, tree[i], w) {
				tree[i], w = w, tree[i]
			}
		}
		gaps.Add(uint64(heads[w].at-ev.at) / uint64(16*sim.Nanosecond))
	}
	return digest, gaps
}

// wireBefore orders runs a and b by their heads in the merged wire view's
// (time, channel, seq) order; run r carries channel r/2. seq is unique
// within a channel, so the order is total over unexhausted runs.
func wireBefore(heads []openWireEvent, a, b int) bool {
	x, y := &heads[a], &heads[b]
	if x.at != y.at {
		return x.at < y.at
	}
	if a>>1 != b>>1 {
		return a>>1 < b>>1
	}
	return x.seq < y.seq
}

// fnvWord feeds v's eight little-endian bytes into the FNV-1a-64 state h.
func fnvWord(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnvPrime64
	h = (h ^ v>>8&0xff) * fnvPrime64
	h = (h ^ v>>16&0xff) * fnvPrime64
	h = (h ^ v>>24&0xff) * fnvPrime64
	h = (h ^ v>>32&0xff) * fnvPrime64
	h = (h ^ v>>40&0xff) * fnvPrime64
	h = (h ^ v>>48&0xff) * fnvPrime64
	return (h ^ v>>56) * fnvPrime64
}
