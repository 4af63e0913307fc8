// Package palermo models Palermo-style protocol/hardware co-designed
// oblivious memory (Haojie Ye et al., arXiv 2411.05400) on the simulator's
// existing bus, memory-controller, and PCM substrates.
//
// Where ObfusMem hides each access behind a dummy pair and the Path ORAM
// performance model charges a fixed 2500 ns per serialized path access,
// Palermo splits an oblivious access into bus-visible phases and lets the
// hardware exploit the parallelism the protocol exposes:
//
//   - a protocol phase (stash + position-map lookup, request scheduling)
//     that occupies a shared front end for a fixed window per access;
//   - a hardware phase that fetches the access's path — PathBlocks
//     encrypted block reads, one real and the rest cover blocks at
//     uniformly random addresses — issued concurrently, so they spread
//     over channels and banks instead of serializing (Palermo's headline
//     win over a protocol-only design that serializes them);
//   - a deferred eviction phase: fetched real blocks are re-encrypted and
//     written back in batches of BatchSize accesses, off the read critical
//     path, with bus and PCM occupancy providing natural back-pressure.
//
// Reads and writes are indistinguishable on the wire (a write's payload
// rides the eviction batch), so the observable trace leaks neither the
// access type nor the address — the same obliviousness target as Path
// ORAM, at a fraction of its serialization cost.
package palermo

import (
	"obfusmem/internal/bus"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
	"obfusmem/internal/xrand"
)

// Config attaches the observability layers; nil keeps each off. The
// design point itself is the constants below.
type Config struct {
	Metrics *metrics.Registry
	Trace   *trace.Recorder
}

const (
	// PathBlocks is the fan-out of the hardware phase: encrypted block
	// fetches per oblivious access (one real + PathBlocks-1 cover blocks).
	PathBlocks = 4
	// BatchSize is the eviction cadence: accesses buffered before the
	// deferred writeback phase flushes their re-encrypted blocks.
	BatchSize = 4
	// ProtocolTime is the per-access protocol-phase occupancy of the shared
	// front end (stash lookup, position-map access, request scheduling).
	ProtocolTime = 8 * sim.Nanosecond
	// DecodeTime is the reply-side cost after the real block returns:
	// select-from-path plus the final decrypt XOR.
	DecodeTime = 2 * sim.Nanosecond
)

// Stats aggregates controller activity.
type Stats struct {
	Accesses     uint64 // oblivious accesses serviced
	PathReads    uint64 // block fetches issued (real + cover)
	EvictWrites  uint64 // deferred writeback blocks issued
	Batches      uint64 // eviction flushes
	LostBlocks   uint64 // path/evict legs dropped in flight by bus faults
	LostRequests uint64 // real requests whose path leg was lost (no recovery)
}

// ctlMetrics is the controller's instrument set; zero value = disabled.
type ctlMetrics struct {
	accesses    *metrics.Counter
	pathReads   *metrics.Counter
	evictWrites *metrics.Counter
	batches     *metrics.Counter
	lostBlocks  *metrics.Counter
	lostReqs    *metrics.Counter
}

func newCtlMetrics(r *metrics.Registry) ctlMetrics {
	sc := r.Scope(names.ScopePalermo)
	if sc == nil {
		return ctlMetrics{}
	}
	return ctlMetrics{
		accesses:    sc.Counter(names.PalermoAccesses),
		pathReads:   sc.Counter(names.PalermoPathReads),
		evictWrites: sc.Counter(names.PalermoEvictWrites),
		batches:     sc.Counter(names.PalermoBatches),
		lostBlocks:  sc.Counter(names.PalermoLostBlocks),
		// Request-level loss lands in the shared fault scope so sweeps can
		// sum silent loss across backends from one place.
		lostReqs: r.Scope(names.ScopeFault).Counter(names.FaultLostRequests),
	}
}

// Controller drives oblivious accesses over a shared bus + memory
// controller. Like the obfus controller it owns a packet arena so the
// steady-state access path allocates nothing.
type Controller struct {
	bus      *bus.Bus
	mem      *memctl.Controller
	rng      *xrand.Rand
	frontEnd *sim.Resource
	tr       *trace.Recorder
	met      ctlMetrics
	stats    Stats
	seq      uint64

	// evict buffers fetched real-block addresses until the batch flush;
	// capacity is fixed at construction so appends never grow it.
	evict      []uint64
	sinceFlush int

	// pktArena recycles packets within one Access call (reset on entry,
	// grown only to the high-water mark).
	pktArena []*bus.Packet
	pktUsed  int
	// zeroData is the shared timing-only payload all data legs alias; per
	// the bus contract nothing mutates packet payloads in place (faults and
	// tamperers corrupt copies).
	zeroData [bus.DataBytes]byte
}

// New builds a controller over the shared substrates. The rng drives
// real-slot choice and cover addresses and must be private to this
// controller (fork it from the machine seed).
func New(cfg Config, b *bus.Bus, mem *memctl.Controller, rng *xrand.Rand) *Controller {
	return &Controller{
		bus:      b,
		mem:      mem,
		rng:      rng,
		frontEnd: sim.NewResource(),
		tr:       cfg.Trace,
		met:      newCtlMetrics(cfg.Metrics),
		evict:    make([]uint64, 0, BatchSize),
	}
}

// Stats returns a snapshot of controller activity.
func (c *Controller) Stats() Stats { return c.stats }

// resetArena rewinds the packet arena for a fresh access.
func (c *Controller) resetArena() { c.pktUsed = 0 }

// newPacket hands out a zeroed packet, reusing the arena up to its
// high-water mark.
func (c *Controller) newPacket() *bus.Packet {
	if c.pktUsed < len(c.pktArena) {
		p := c.pktArena[c.pktUsed]
		c.pktUsed++
		*p = bus.Packet{}
		return p
	}
	p := &bus.Packet{}
	c.pktArena = append(c.pktArena, p)
	c.pktUsed++
	return p
}

// coverAddr draws a uniformly random block-aligned cover address.
func (c *Controller) coverAddr() uint64 {
	return (c.rng.Uint64n(memctl.Capacity)) &^ 63
}

// sealCmd fills the wire view of a command packet with a cheap
// deterministic "ciphertext" (the attacker-visible bytes carry no
// structure; real key-stream sealing would add nothing to the timing
// model). Only wire bytes depend on it, so it runs only when the bus is
// exposed to an observer, tamperer or fault injector; a bare bus carries
// the command with a zero CmdCipher.
func (c *Controller) sealCmd(p *bus.Packet, addr, seq uint64) {
	if !c.bus.Exposed() {
		return
	}
	x := xrand.Mix64(addr ^ xrand.Mix64(seq))
	for i := 0; i < bus.CmdBytes; i += 8 {
		for j := 0; j < 8; j++ {
			p.CmdCipher[i+j] = byte(x >> (8 * uint(j)))
		}
		x = xrand.Mix64(x)
	}
}

// fetchBlock runs one hardware-phase block fetch: encrypted command out,
// PCM access, data reply back. It returns the reply arrival and whether
// both legs survived the wire.
func (c *Controller) fetchBlock(at sim.Time, addr uint64, dummy bool) (sim.Time, bool) {
	ch := c.mem.Mapper().ChannelOf(addr)
	cmd := c.newPacket()
	cmd.Channel = ch
	cmd.Dir = bus.ProcToMem
	cmd.HasCmd = true
	cmd.Type = bus.Read
	cmd.Addr = addr
	cmd.IsDummy = dummy
	cmd.Seq = c.seq
	c.seq++
	c.sealCmd(cmd, addr, cmd.Seq)
	c.stats.PathReads++
	c.met.pathReads.Inc()
	arrive, delivered := c.bus.Transfer(at, cmd)
	if delivered == nil {
		c.stats.LostBlocks++
		c.met.lostBlocks.Inc()
		return arrive, false
	}
	done := c.mem.Access(arrive, addr, false)
	reply := c.newPacket()
	reply.Channel = ch
	reply.Dir = bus.MemToProc
	reply.Data = c.zeroData[:]
	reply.Type = bus.Read
	reply.Addr = addr
	reply.IsDummy = dummy
	reply.Seq = cmd.Seq
	repArrive, repDelivered := c.bus.Transfer(done, reply)
	if repDelivered == nil {
		c.stats.LostBlocks++
		c.met.lostBlocks.Inc()
		return repArrive, false
	}
	return repArrive, true
}

// flushEvictions runs the deferred writeback phase: every buffered block
// goes back re-encrypted as a write packet (command + payload). The flush
// issues at `at` and completes in the background — only bus and PCM
// occupancy feed back into later accesses.
func (c *Controller) flushEvictions(at sim.Time) {
	if len(c.evict) == 0 {
		return
	}
	c.stats.Batches++
	c.met.batches.Inc()
	last := at
	for _, addr := range c.evict {
		ch := c.mem.Mapper().ChannelOf(addr)
		w := c.newPacket()
		w.Channel = ch
		w.Dir = bus.ProcToMem
		w.HasCmd = true
		w.Data = c.zeroData[:]
		w.Type = bus.Write
		w.Addr = addr
		w.Seq = c.seq
		c.seq++
		c.sealCmd(w, addr, w.Seq)
		c.stats.EvictWrites++
		c.met.evictWrites.Inc()
		arrive, delivered := c.bus.Transfer(at, w)
		if delivered == nil {
			c.stats.LostBlocks++
			c.met.lostBlocks.Inc()
			continue
		}
		if done := c.mem.Access(arrive, addr, true); done > last {
			last = done
		}
	}
	if c.tr != nil {
		c.tr.Span(trace.PIDCPU, "palermo", trace.CatOther, names.SpanEvictFlush, at, last,
			trace.Int("blocks", int64(len(c.evict))))
	}
	c.evict = c.evict[:0]
	c.sinceFlush = 0
}

// Access services one oblivious access (read or write — identical on the
// wire) arriving at `at`. It returns the completion time of the real
// block's fetch and whether the real block survived the wire (false means
// the request was lost to an injected fault; Palermo has no link-level
// recovery, so loss is surfaced, not retried).
func (c *Controller) Access(at sim.Time, addr uint64, write bool) (done sim.Time, ok bool) {
	_ = write // reads and writes are indistinguishable by design
	c.resetArena()
	c.stats.Accesses++
	c.met.accesses.Inc()

	// Protocol phase: the shared front end serializes stash/posmap work.
	start := c.frontEnd.Acquire(at, ProtocolTime)
	issue := start + ProtocolTime
	if c.tr != nil {
		c.tr.Span(trace.PIDCPU, "palermo", trace.CatQueue, names.SpanPalermoProtocol, at, issue)
	}

	// Hardware phase: fetch the path. One uniformly chosen slot carries the
	// real address; the rest are cover blocks that spread over channels and
	// banks. All fetches issue together — the bus links and PCM banks are
	// the only serialization points.
	realSlot := c.rng.Intn(PathBlocks)
	var latest sim.Time
	ok = false
	for i := 0; i < PathBlocks; i++ {
		a := addr
		if i != realSlot {
			a = c.coverAddr()
		}
		rep, delivered := c.fetchBlock(issue, a, i != realSlot)
		if rep > latest {
			latest = rep
		}
		if i == realSlot && delivered {
			done = rep + DecodeTime
			ok = true
		}
	}
	if !ok {
		c.stats.LostRequests++
		c.met.lostReqs.Inc()
		done = latest
	}
	if c.tr != nil {
		c.tr.Span(trace.PIDCPU, "palermo", trace.CatBus, names.SpanPathRead, issue, latest,
			trace.Int("blocks", PathBlocks))
	}

	// Eviction phase: the real block is re-encrypted under a fresh position
	// and buffered; every BatchSize accesses the batch flushes off the
	// critical path.
	c.evict = append(c.evict, addr&^63)
	c.sinceFlush++
	if c.sinceFlush >= BatchSize {
		c.flushEvictions(latest)
	}
	return done, ok
}

// Drain flushes any buffered evictions (machine quiesce).
func (c *Controller) Drain(at sim.Time) { c.flushEvictions(at) }
