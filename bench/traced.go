package main

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"obfusmem/internal/aes"
	"obfusmem/internal/attack"
	"obfusmem/internal/bus"
	"obfusmem/internal/cpu"
	"obfusmem/internal/ctrmode"
	"obfusmem/internal/keys"
	"obfusmem/internal/md5sim"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/obfus"
	"obfusmem/internal/pcm"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// The traced run measures every layer from outside: it times the public
// functions the harness calls, samples System.Read/Write by call index, and
// replays each lower layer's public function on a cell's own inputs. No
// file outside bench/ is instrumented.

// sampleEvery: one System call in sampleEvery is timed, picked by call index.
const sampleEvery = 8

// spanLimit bounds the spans kept for the dump. Per-layer numbers come from
// running sums taken at the same boundaries, so spans past the limit are
// counted as dropped without biasing any metric.
const spanLimit = 100_000

// span is one host-time interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"` // call index of a sampled System call
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

var spanIDs atomic.Int64

func newSpanID() int64 { return spanIDs.Add(1) }

type spanList []span

func (s *spanList) add(id, parent int64, req int, name string, t0, t1 time.Time) {
	*s = append(*s, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: t0.Sub(processStart).Nanoseconds(), End: t1.Sub(processStart).Nanoseconds()})
}

// timerCost is what a time.Now pair adds to a measured interval: the median
// of many empty intervals.
func timerCost() float64 {
	d := make([]float64, 20000)
	for i := range d {
		t := time.Now()
		d[i] = float64(time.Since(t))
	}
	return median(d)
}

// nullMemory is a zero-latency cpu.MemorySystem: driving it measures the
// cpu layer alone.
type nullMemory struct{}

func (nullMemory) Read(at sim.Time, _ uint64) sim.Time  { return at }
func (nullMemory) Write(at sim.Time, _ uint64) sim.Time { return at }
func (nullMemory) Drain(sim.Time)                       {}

// sampler wraps the memory system cpu.RunTrace drives and times one call
// in sampleEvery, subtracting the calibrated timer cost.
type sampler struct {
	mem           cpu.MemorySystem
	timer         float64
	parent        int64
	spans         *spanList
	calls         int
	samples       int
	sumNS         float64
	reads, writes []float64
}

func (s *sampler) Read(at sim.Time, addr uint64) sim.Time {
	s.calls++
	if s.calls%sampleEvery != 0 {
		return s.mem.Read(at, addr)
	}
	t := time.Now()
	done := s.mem.Read(at, addr)
	s.reads = append(s.reads, s.sample("system.Read", t, time.Now()))
	return done
}

func (s *sampler) Write(at sim.Time, addr uint64) sim.Time {
	s.calls++
	if s.calls%sampleEvery != 0 {
		return s.mem.Write(at, addr)
	}
	t := time.Now()
	done := s.mem.Write(at, addr)
	s.writes = append(s.writes, s.sample("system.Write", t, time.Now()))
	return done
}

func (s *sampler) Drain(at sim.Time) { s.mem.Drain(at) }

func (s *sampler) sample(name string, t0, t1 time.Time) float64 {
	s.samples++
	s.spans.add(newSpanID(), s.parent, s.calls, name, t0, t1)
	d := float64(t1.Sub(t0)) - s.timer
	s.sumNS += d
	return d
}

// systemNS extrapolates the sampled calls to every call.
func (s *sampler) systemNS() float64 { return s.sumNS * ratio(float64(s.calls), float64(s.samples)) }

// tracedCell is a cell run under the traced harness.
type tracedCell struct {
	cellResult               // hostNS covers generation, drive and analysis
	genNS            int64   // workload.Generate
	sysNS            float64 // estimated Σ System.Read/Write time
	reads, writes    []float64
	evalNS, exportNS int64
	counts           map[string]float64
	spans            spanList
}

func (w *spec) runTracedCell(c cell, n int, seed uint64, timerNS float64) tracedCell {
	if w.openLoop {
		return runTracedOpen(c, n, seed)
	}
	var t tracedCell
	cellID, driveID := newSpanID(), newSpanID()
	t0 := time.Now()
	reqs := workload.Generate(c.profile, n, streamSeed(seed, c))
	t1 := time.Now()
	m := newMachine(w, c, seed, w.instruments())
	t2 := time.Now()
	smp := &sampler{mem: m.mem, timer: timerNS, parent: driveID, spans: &t.spans}
	res := cpu.RunTrace(c.profile.Name, reqs, smp, m.ccfg)
	t3 := time.Now()
	t.evalNS, t.exportNS = m.analysis()
	t4 := time.Now()
	t.spans.add(newSpanID(), cellID, 0, "workload.Generate", t0, t1)
	t.spans.add(newSpanID(), cellID, 0, "system.New", t1, t2)
	t.spans.add(driveID, cellID, 0, "cpu.RunTrace", t2, t3)
	if w.observed {
		t.spans.add(newSpanID(), cellID, 0, "analysis", t3, t4)
	}
	t.spans.add(cellID, 0, 0, "cell "+c.key(), t0, t4)
	t.cellResult = cellResult{cell: c, requests: n, hostNS: t1.Sub(t0).Nanoseconds() + t4.Sub(t2).Nanoseconds(),
		newNS: t2.Sub(t1).Nanoseconds(), digest: resultDigest(res), failure: check(m.sys, res, n), res: res}
	t.genNS = t1.Sub(t0).Nanoseconds()
	t.sysNS, t.reads, t.writes = smp.systemNS(), smp.reads, smp.writes
	t.counts = simCounts(w, c, m, res, n)
	switch c.backend {
	case "oram", "palermo":
		// Not replayed: their sampled System time is their layer estimate.
		t.counts[c.backend+".sys_ns"] = t.sysNS
		t.counts[c.backend+".requests"] = float64(n)
	default:
		if m.sys.Encryption() != nil {
			t.counts["replayed.ctrmode"] = float64(n)
		}
	}
	return t
}

// simCounts reads the model's own counters through the public Stats
// accessors. They are simulated quantities: identical on every run.
func simCounts(w *spec, c cell, m machine, res cpu.Result, n int) map[string]float64 {
	k := map[string]float64{"requests": float64(n), "exec_ps": float64(res.ExecTime), "stall_ps": float64(res.StallTime)}
	if e := m.sys.Encryption(); e != nil {
		st := e.Stats()
		k["ctrmode.requests"] = float64(n)
		k["ctrmode.hits"], k["ctrmode.misses"], k["ctrmode.fetches"] = float64(st.CtrHits), float64(st.CtrMisses), float64(st.CtrFetches)
	}
	if o := m.sys.Obfus(); o != nil {
		st := o.Stats()
		k["obfus.requests"] = float64(n)
		k["obfus.legs"] = float64(st.RealReads + st.RealWrites)
		k["obfus.dummies"] = float64(st.DummyReads + st.DummyWrites)
		k["obfus.macs"] = float64(st.MACsComputed)
		k["obfus.pads"] = float64(o.PadsProc() + o.PadsMem())
		k["obfus.substituted"], k["obfus.real_writes"] = float64(st.SubstitutedPairs), float64(st.RealWrites)
		k["obfus.inter_channel"] = float64(st.InterChannelPairs)
	}
	for _, s := range m.sys.Bus().Stats() {
		k["bus.packets"] += float64(s.Packets)
		k["bus.busy_ps"] += float64(s.ReqBusy + s.RespBusy)
	}
	k["bus.capacity_ps"] = float64(2*w.channels) * float64(res.ExecTime)
	for _, s := range m.sys.Memory().Stats() {
		k["memctl.accesses"] += float64(s.Reads + s.Writes)
	}
	p := m.sys.Memory().TotalPCMStats()
	k["pcm.hits"], k["pcm.misses"], k["pcm.array_writes"] = float64(p.RowHits), float64(p.RowMisses), float64(p.ArrayWrites)
	if c.backend == "unprotected" || c.backend == "encrypt-only" {
		// The plain backend's leg is one bus transfer per packet plus one
		// controller access: the residual's estimate for these cells.
		k["plain.packets"], k["plain.accesses"] = k["bus.packets"], k["memctl.accesses"]
	}
	if m.rec != nil {
		k["trace.retained"] = float64(m.rec.Len())
		k["trace.dropped"] = float64(m.rec.Dropped())
	}
	return k
}

// laneOps regenerates the open-loop lanes' arrivals exactly as
// system.RunOpenLoop draws them (the first draw only sets the first gap),
// with each address pinned to its lane's channel, in arrival order.
func laneOps(n int, seed uint64, round int) (ops []op, genNS int64) {
	cfg := openConfig(seed, round, n, 1)
	profiles := workload.SPEC2006()
	mapper := memctl.NewMapper(memctl.DefaultConfig(cfg.Channels))
	for ch := 0; ch < cfg.Channels; ch++ {
		t := time.Now()
		reqs := workload.Generate(profiles[ch%len(profiles)], n+1, cfg.Seed^xrand.Mix64(uint64(ch)))
		genNS += time.Since(t).Nanoseconds()
		at := reqs[0].Gap
		for _, r := range reqs[1:] {
			ops = append(ops, op{at: at, addr: mapper.WithChannel(r.Addr, ch), write: r.Write})
			at += r.Gap
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops, genNS
}

func runTracedOpen(c cell, n int, seed uint64) tracedCell {
	var t tracedCell
	cellID := newSpanID()
	t0 := time.Now()
	_, genNS := laneOps(n, seed, c.round)
	t1 := time.Now()
	par, r := runOpenCell(c, n, seed, openShards)
	t2 := time.Now()
	seq, _ := runOpenCell(c, n, seed, 1)
	t3 := time.Now()
	t.spans.add(newSpanID(), cellID, 0, "workload.Generate", t0, t1)
	t.spans.add(newSpanID(), cellID, 0, "system.RunOpenLoop shards=2", t1, t2)
	t.spans.add(newSpanID(), cellID, 0, "system.RunOpenLoop shards=1", t2, t3)
	t.spans.add(cellID, 0, 0, "cell "+c.key(), t0, t3)
	t.cellResult = par
	if seq.digest != par.digest {
		t.failure = "shards=2 report differs from shards=1"
	}
	t.genNS = genNS
	t.counts = map[string]float64{"requests": float64(par.requests), "sim.events": float64(r.EventsFired),
		"sim.seq_ns": float64(seq.hostNS), "sim.par_ns": float64(par.hostNS)}
	return t
}

// op is one request of a replay: when it arrives, where, and which kind.
type op struct {
	at    sim.Time
	addr  uint64
	write bool
}

func opsOf(reqs []workload.Request) []op {
	out := make([]op, len(reqs))
	var at sim.Time
	for i, r := range reqs {
		at += r.Gap
		out[i] = op{at: at, addr: r.Addr, write: r.Write}
	}
	return out
}

type capturedPacket struct {
	at sim.Time
	p  bus.Packet
}

// capturePackets re-runs a cell untimed with a bus.ObserverFunc attached
// and returns a copy of every packet it put on the bus.
func capturePackets(w *spec, c cell, seed uint64, reqs []workload.Request) []capturedPacket {
	m := newMachine(w, c, seed, instruments{})
	var pkts []capturedPacket
	m.sys.Bus().AttachObserver(bus.ObserverFunc(func(at sim.Time, p *bus.Packet) {
		pkts = append(pkts, capturedPacket{at: at, p: *p})
	}))
	cpu.RunTrace(c.profile.Name, reqs, m.sys, m.ccfg)
	return pkts
}

// openPackets builds the three packets an open-loop lane puts on the wire
// per request (read command, write command with data, read reply).
func openPackets(ops []op, channels int) []capturedPacket {
	mapper := memctl.NewMapper(memctl.DefaultConfig(channels))
	data := make([]byte, bus.DataBytes)
	out := make([]capturedPacket, 0, 3*len(ops))
	for _, o := range ops {
		ch := mapper.ChannelOf(o.addr)
		out = append(out,
			capturedPacket{o.at, bus.Packet{Channel: ch, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true, Type: bus.Read, Addr: o.addr}},
			capturedPacket{o.at, bus.Packet{Channel: ch, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true, Data: data, Type: bus.Write, Addr: o.addr}},
			capturedPacket{o.at, bus.Packet{Channel: ch, Dir: bus.MemToProc, HasMAC: true, Data: data, Type: bus.Read, Addr: o.addr}})
	}
	return out
}

// replayKey keys every replayed cipher; any fixed key will do.
var replayKey = [16]byte{0x0b, 0xf5, 0x3e, 0x11, 0x42, 0x9a, 0x07, 0xc3, 0x5d, 0x61, 0x88, 0x2f, 0xe4, 0x19, 0x70, 0xa5}

// Sinks keep the replayed pure functions from being optimised away.
var (
	padSink aes.Pad
	macSink md5sim.MAC
)

// obfusRig builds an authenticated ObfusMem controller by hand, the way
// obfusLegAllocs in the root package's bench_test.go does.
func obfusRig(channels int) *obfus.Controller {
	b := bus.New(bus.DefaultConfig(channels))
	mc := memctl.New(memctl.DefaultConfig(channels))
	table := keys.NewSessionKeyTable(channels, mc.Mapper().ChannelOf)
	for ch := 0; ch < channels; ch++ {
		k := replayKey
		k[0] = byte(ch + 1)
		table.SetKey(ch, k)
	}
	return obfus.New(obfus.DefaultAuth(), b, mc, table, xrand.New(42))
}

// replay times each lower layer's public function on one cell's inputs,
// adding "<layer>.ns" and "<layer>.calls" to sums and a span per layer.
func replay(ops []op, channels int, pkts []capturedPacket, sums map[string]float64, spans *spanList) {
	root := newSpanID()
	t0 := time.Now()
	timed := func(layer string, calls int, f func()) {
		t := time.Now()
		f()
		end := time.Now()
		spans.add(newSpanID(), root, 0, "replay "+layer, t, end)
		sums[layer+".ns"] += float64(end.Sub(t))
		sums[layer+".calls"] += float64(calls)
	}
	reqs := make([]workload.Request, len(ops))
	var prev sim.Time
	for i, o := range ops {
		reqs[i] = workload.Request{Gap: o.at - prev, Addr: o.addr, Write: o.write}
		prev = o.at
	}
	timed("cpu", len(ops), func() { cpu.RunTrace("replay", reqs, nullMemory{}, cpu.DefaultConfig()) })
	const readLatency = 100 * sim.Nanosecond
	enc := ctrmode.New(replayKey, nil)
	timed("ctrmode", len(ops), func() {
		for _, o := range ops {
			if o.write {
				enc.EncryptWriteback(o.at, o.addr)
			} else {
				enc.DecryptFill(o.at, o.addr, o.at+readLatency)
			}
		}
	})
	ctrl := obfusRig(channels)
	timed("obfus", len(ops), func() {
		for _, o := range ops {
			if o.write {
				ctrl.Write(o.at, o.addr, o.at)
			} else {
				ctrl.Read(o.at, o.addr)
			}
		}
	})
	cipher, err := aes.NewCipher(replayKey[:])
	if err != nil {
		panic(err)
	}
	ctr := aes.NewCTR(cipher)
	timed("aes", len(ops), func() {
		for i, o := range ops {
			padSink = ctr.Pad(aes.IV{ID: o.addr, Counter: uint64(i)})
		}
	})
	timed("md5sim", len(ops), func() {
		for i, o := range ops {
			macSink = md5sim.Compute(byte(bus.Read), o.addr, uint64(i))
		}
	})
	b := bus.New(bus.DefaultConfig(channels))
	timed("bus", len(pkts), func() {
		for i := range pkts {
			b.Transfer(pkts[i].at, &pkts[i].p)
		}
	})
	mc := memctl.New(memctl.DefaultConfig(channels))
	timed("memctl", len(ops), func() {
		for _, o := range ops {
			mc.Access(o.at, o.addr, o.write)
		}
	})
	mapper := memctl.NewMapper(memctl.DefaultConfig(channels))
	coords := make([]memctl.Coords, len(ops))
	for i, o := range ops {
		coords[i] = mapper.Decode(o.addr)
	}
	dev := pcm.New(pcm.DefaultConfig())
	timed("pcm", len(ops), func() {
		for i, o := range ops {
			dev.Access(o.at, coords[i].Rank, coords[i].Bank, coords[i].Row, o.write)
		}
	})
	spans.add(root, 0, 0, "replay", t0, time.Now())
}

// openCounts reruns an open-loop cell untimed with a metrics registry, the
// only window onto its bus, controller and PCM counters, and reads the
// cover count from its report.
func openCounts(n int, seed uint64, round int) map[string]float64 {
	cfg := openConfig(seed, round, n, 1)
	cfg.Metrics = metrics.NewRegistry()
	r := system.RunOpenLoop(cfg)
	k := map[string]float64{"requests": float64(n * cfg.Channels)}
	for name, v := range cfg.Metrics.Snapshot().Counters {
		parts := strings.Split(name, ".")
		switch parts[0] + "." + parts[len(parts)-1] {
		case "bus.read_packets", "bus.write_packets", "bus.control_packets":
			k["bus.packets"] += float64(v)
		case "memctl.reads", "memctl.writes":
			k["memctl.accesses"] += float64(v)
		case "pcm.row_hits":
			k["pcm.hits"] += float64(v)
		case "pcm.row_misses":
			k["pcm.misses"] += float64(v)
		case "pcm.array_writes":
			k["pcm.array_writes"] += float64(v)
		}
	}
	// The TOTAL row's "covers" column counts inter-channel cover pairs.
	covers, err := strconv.ParseFloat(r.Table.Cell(r.Table.Rows()-1, 3), 64)
	if err != nil {
		panic(err)
	}
	k["obfus.inter_channel"], k["obfus.requests"] = covers, k["requests"]
	return k
}

// overheads times back-to-back copies of an observed cell's drive loop with
// all instruments on and with each one off, each after a collection so the
// previous run's garbage is not charged to it. It returns each
// instrument's cost per request and the bus observer's per packet.
func overheads(w *spec, c cell, seed uint64, reqs []workload.Request) (metricsNS, traceNS, tapNS float64) {
	run := func(in instruments) (float64, *attack.Observer) {
		m := newMachine(w, c, seed, in)
		runtime.GC()
		t := time.Now()
		cpu.RunTrace(c.profile.Name, reqs, m.mem, m.ccfg)
		return float64(time.Since(t)), m.obs
	}
	all, obs := run(instruments{metrics: true, trace: true, tap: true})
	noMetrics, _ := run(instruments{trace: true, tap: true})
	noTrace, _ := run(instruments{metrics: true, tap: true})
	noTap, _ := run(instruments{metrics: true, trace: true})
	n := float64(len(reqs))
	return (all - noMetrics) / n, (all - noTrace) / n, ratio(all-noTap, float64(obs.Packets()))
}

// keep adds spans to the dump up to spanLimit and counts the rest.
func (r *report) keep(spans spanList) {
	n := min(len(spans), max(spanLimit-len(r.spans), 0))
	r.spans = append(r.spans, spans[:n]...)
	r.dropped += len(spans) - n
}

// replayUnit names each replayed layer's per-call metric.
var replayUnit = map[string]string{"cpu": "self_ns_per_req", "ctrmode": "ns_per_call", "obfus": "ns_per_leg",
	"aes": "ns_per_pad", "md5sim": "ns_per_mac", "bus": "ns_per_transfer", "memctl": "ns_per_access", "pcm": "ns_per_access"}

// runTraced runs a fifth of the workload's rounds untraced and then traced,
// replays the lower layers on the first round's inputs, and reports the
// per-layer metrics.
func runTraced(w *spec, o options) *report {
	rep := newReport(w, o)
	rep.rounds = max(1, rep.rounds/5)
	timerNS := timerCost()
	warmUp(w, rep.n, o.seed)
	rounds := roundRange(0, rep.rounds)

	// The same rounds untraced, then traced: the pair gives the tracing
	// overhead, and equal digests show the harness leaves results alone.
	plain, _ := runRounds(w, rounds, func(c cell) cellResult { return w.runCell(c, rep.n, o.seed) }, self)
	traced, ph := runRounds(w, rounds, func(c cell) tracedCell { return w.runTracedCell(c, rep.n, o.seed, timerNS) },
		func(t *tracedCell) *cellResult { return &t.cellResult })
	tcells := ph.cells
	for i := range tcells {
		if tcells[i].failure == "" && plain[i].failure == "" && tcells[i].digest != plain[i].digest {
			tcells[i].failure = "traced run changed the simulated result"
		}
	}
	verifyGolden(w, rep, plain, tcells)
	rep.cells = plain
	rep.count(plain)
	rep.count(tcells)

	tot := map[string]float64{}
	var genNS, hostNS, sysNS, evalNS, exportNS float64
	var reads, writes, newNS []float64
	for i, t := range traced {
		if tcells[i].requests == 0 {
			continue // panicked
		}
		for k, v := range t.counts {
			tot[k] += v
		}
		genNS += float64(t.genNS)
		hostNS += float64(tcells[i].hostNS)
		sysNS += t.sysNS
		evalNS += float64(t.evalNS)
		exportNS += float64(t.exportNS)
		reads = append(reads, t.reads...)
		writes = append(writes, t.writes...)
		newNS = append(newNS, float64(tcells[i].newNS))
		rep.keep(t.spans)
	}

	// Replays on the first round's inputs.
	rs := map[string]float64{}
	var rspans spanList
	if w.openLoop {
		ops, _ := laneOps(rep.n, o.seed, 0)
		replay(ops, w.channels, openPackets(ops, w.channels), rs, &rspans)
	} else {
		for _, c := range w.cells(0) {
			reqs := workload.Generate(c.profile, rep.n, streamSeed(o.seed, c))
			replay(opsOf(reqs), w.channels, capturePackets(w, c, o.seed, reqs), rs, &rspans)
		}
	}
	rep.keep(rspans)

	// Counts: the Stats accessors of every traced cell, or for the open loop
	// its registry and report.
	counts := tot
	if w.openLoop {
		counts = openCounts(rep.n, o.seed, 0)
	}
	v := rep.values
	per := func(layer string) float64 { return ratio(rs[layer+".ns"], rs[layer+".calls"]) }
	reqs, creqs := tot["requests"], counts["requests"]

	// Defined on every workload: the per_layer set of BENCHMARK.json.
	v["workload.ns_per_req"] = ratio(genNS, reqs)
	v["workload.share"] = ratio(genNS, hostNS)
	for layer, unit := range replayUnit {
		v[layer+"."+unit] = per(layer)
	}
	v["obfus.inter_channel_pairs_per_req"] = ratio(counts["obfus.inter_channel"], counts["obfus.requests"])
	v["bus.packets_per_req"] = ratio(counts["bus.packets"], creqs)
	v["memctl.accesses_per_req"] = ratio(counts["memctl.accesses"], creqs)
	v["pcm.row_hit_rate"] = ratio(counts["pcm.hits"], counts["pcm.hits"]+counts["pcm.misses"])
	v["pcm.array_writes_per_req"] = ratio(counts["pcm.array_writes"], creqs)
	v["exp.pool_busy_frac"] = ratio(float64(ph.busyNS), float64(w.workers)*float64(ph.wallNS))
	var tails []float64
	for _, t := range ph.tailNS {
		tails = append(tails, float64(t)/1e9)
	}
	v["exp.round_tail_s"] = stats.Mean(tails)
	v["bench.timer_ns"] = timerNS
	untraced := floorNSPerReq(plain, w.floorPct())
	v["bench.trace_overhead_pct"] = ratio(floorNSPerReq(tcells, w.floorPct())-untraced, untraced) * 100

	if w.openLoop {
		v["sim.events_per_req"] = ratio(tot["sim.events"], reqs)
		v["sim.seq_ns_per_req"] = ratio(tot["sim.seq_ns"], reqs)
		v["sim.shard_speedup_x"] = ratio(tot["sim.seq_ns"], tot["sim.par_ns"])
		// The whole open-loop run stands in for System; its replayed parts
		// are the generator, the bus transfers and the controller accesses.
		v["system.ns_per_req"] = ratio(tot["sim.par_ns"], reqs)
		v["bench.residual_ns_per_req"] = v["system.ns_per_req"] - v["workload.ns_per_req"] -
			v["bus.ns_per_transfer"]*v["bus.packets_per_req"] - v["memctl.ns_per_access"]*v["memctl.accesses_per_req"]
		return rep
	}

	// Inside System: the at-rest engine on every replayed protected
	// request, the obfus leg on every backend call of an obfus cell, the
	// plain backend's bus transfers and controller accesses, and the sampled
	// System time of the ORAM and Palermo cells, which are not replayed.
	v["system.ns_per_req"] = ratio(sysNS, reqs)
	est := per("ctrmode")*tot["replayed.ctrmode"] + per("obfus")*tot["obfus.legs"] +
		per("bus")*tot["plain.packets"] + per("memctl")*tot["plain.accesses"] + tot["oram.sys_ns"] + tot["palermo.sys_ns"]
	v["bench.residual_ns_per_req"] = v["system.ns_per_req"] - ratio(est, reqs)
	v["cpu.sim_stall_frac"] = ratio(tot["stall_ps"], tot["exec_ps"])
	v["system.read_ns_p50"] = stats.Percentile(reads, 50)
	v["system.read_ns_p90"] = stats.Percentile(reads, 90)
	v["system.write_ns_p50"] = stats.Percentile(writes, 50)
	v["system.write_ns_p90"] = stats.Percentile(writes, 90)
	v["system.new_us"] = median(newNS) / 1e3
	v["ctrmode.ctr_hit_rate"] = ratio(tot["ctrmode.hits"], tot["ctrmode.hits"]+tot["ctrmode.misses"])
	v["ctrmode.fetches_per_req"] = ratio(tot["ctrmode.fetches"], tot["ctrmode.requests"])
	v["obfus.dummies_per_req"] = ratio(tot["obfus.dummies"], tot["obfus.requests"])
	v["obfus.macs_per_req"] = ratio(tot["obfus.macs"], tot["obfus.requests"])
	v["obfus.pads_per_req"] = ratio(tot["obfus.pads"], tot["obfus.requests"])
	v["obfus.substituted_frac"] = ratio(tot["obfus.substituted"], tot["obfus.real_writes"])
	v["bus.busy_frac"] = ratio(tot["bus.busy_ps"], tot["bus.capacity_ps"])
	for _, b := range []string{"oram", "palermo"} {
		if tot[b+".requests"] > 0 {
			v[b+".ns_per_req"] = ratio(tot[b+".sys_ns"], tot[b+".requests"])
		}
	}
	if w.observed {
		var m, t, a []float64
		for _, r := range rounds {
			for _, c := range w.cells(r) {
				mi, ti, ai := overheads(w, c, o.seed, workload.Generate(c.profile, rep.n, streamSeed(o.seed, c)))
				m, t, a = append(m, mi), append(t, ti), append(a, ai)
			}
		}
		v["metrics.overhead_ns_per_req"] = median(m)
		v["trace.overhead_ns_per_req"] = median(t)
		v["attack.observer_ns_per_packet"] = median(a)
		v["trace.spans_per_req"] = ratio(tot["trace.retained"]+tot["trace.dropped"], reqs)
		v["trace.dropped_frac"] = ratio(tot["trace.dropped"], tot["trace.retained"]+tot["trace.dropped"])
		v["trace.export_ns_per_span"] = ratio(exportNS, tot["trace.retained"])
		v["leakage.evaluate_ms_per_cell"] = ratio(evalNS/1e6, float64(len(traced)))
	}
	return rep
}
