package obfus

import (
	"obfusmem/internal/bus"
	"obfusmem/internal/memctl"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// Read services one timing-only LLC demand miss; see ReadBlock.
func (c *Controller) Read(at sim.Time, addr uint64) (done sim.Time, ok bool) {
	return c.ReadBlock(at, addr, nil)
}

// ReadBlock services one LLC demand miss: the full ObfusMem round trip. It
// returns the time the (at-rest-encrypted) block is available at the
// processor and whether the request completed authentically (false only
// under active tampering or packet loss). A non-nil blk receives the
// stored at-rest ciphertext; nil models timing only.
func (c *Controller) ReadBlock(at sim.Time, addr uint64, blk *memctl.Block) (done sim.Time, ok bool) {
	c.resetArena()
	ch := c.ChannelOf(addr)
	cs := c.chans[ch]
	c.stats.RealReads++
	c.met.realReads.Inc()
	if cs.quarantined {
		// Fail-stop: the channel exhausted its retry budget earlier; the
		// refusal is immediate and accounted, never silent.
		c.legFailed(false, true)
		return at, false
	}
	if c.cfg.TimingOblivious {
		at = c.quantize(cs, ch, at)
	}

	// Inter-channel dummies issue first so the real channel cannot be
	// identified as the one whose request leads (Section 3.4).
	c.injectInterChannel(at, ch)

	// Pair the read with a write half: a pending real write if the
	// substitute-real optimisation has one, else a dummy write.
	var writeHalf *pendingWrite
	var w pendingWrite
	if c.cfg.SubstituteReal && cs.queuedWrites() > 0 {
		w = cs.popWrite()
		writeHalf = &w
		c.stats.SubstitutedPairs++
		c.met.substitutedPairs.Inc()
		if c.tr != nil {
			c.tr.Instant(trace.PIDCPU, "frontend", names.SpanSubstituteReal, at,
				trace.Uint("write_addr", w.addr))
		}
	}

	at = c.acquireFrontEnd(at)
	padBase := cs.reqCtr
	cs.reqCtr += slotGroup
	// Second digest covers the write half of the pair.
	_, sendReady := c.requestCrypto(cs, ch, at, true, true)

	// Assemble the two halves.
	readH := half{t: bus.Read, addr: addr, ready: sendReady, blk: blk}
	writeH := half{t: bus.Write, addr: c.dummyAddrFor(cs, addr, ch), dummy: true, ready: sendReady}
	if writeHalf != nil {
		writeH.addr = writeHalf.addr
		writeH.dummy = false
		writeH.ready = max(sendReady, writeHalf.atRestReady)
	}

	readDone, readOK, _ := c.issuePair(cs, ch, padBase, readH, writeH)
	return readDone, readOK
}

// half is one request packet: a member of a read/write pair.
type half struct {
	t     bus.ReqType
	addr  uint64
	dummy bool
	ready sim.Time
	// blk, when non-nil, carries a value: the block a write stores, or
	// the block a read's reply fills.
	blk *memctl.Block
}

// issuePair puts both halves of a pair on the wire (in the configured
// order; pad counters follow wire order) and then runs the memory side for
// each in arrival order. It returns the read's completion time and status,
// and the write's memory-side completion time.
func (c *Controller) issuePair(cs *chanState, ch int, padBase uint64, readH, writeH half) (readDone sim.Time, readOK bool, writeDone sim.Time) {
	first, second := readH, writeH
	if c.cfg.Order == WriteThenRead {
		first, second = writeH, readH
	}
	for _, h := range []half{first, second} {
		if h.dummy {
			if h.t == bus.Write {
				c.stats.DummyWrites++
				c.met.dummyWrites.Inc()
			} else {
				c.stats.DummyReads++
				c.met.dummyReads.Inc()
			}
		}
	}
	arrive1, del1 := c.sendPacket(cs, ch, first, padBase, padBase)
	arrive2, del2 := c.sendPacket(cs, ch, second, padBase+1, padBase)

	d1, ok1 := c.processHalf(cs, ch, padBase, first, arrive1, del1)
	d2, ok2 := c.processHalf(cs, ch, padBase, second, arrive2, del2)
	if first.t == bus.Read {
		readDone, readOK, writeDone = d1, ok1, d2
	} else {
		readDone, readOK, writeDone = d2, ok2, d1
	}
	cs.lastReqWire = max(cs.lastReqWire, arrive1, arrive2)
	return readDone, readOK, writeDone
}

// processHalf runs the memory side for one request packet of the slot
// group at padBase: decode, then serve, with recovery when configured. It
// returns the leg's completion time; ok is meaningful for legs that get a
// reply only (a pair's write half is posted). As a method rather than a
// closure the issue path stays allocation-free.
func (c *Controller) processHalf(cs *chanState, ch int, padBase uint64, h half, arrive sim.Time, del *bus.Packet) (done sim.Time, ok bool) {
	if cs.quarantined {
		// The pair's other half exhausted the retry budget while this
		// packet was in flight; the memory side is fail-stopped.
		c.legFailed(h.dummy, true)
		return arrive, false
	}
	dAddr, decodeDone, accepted := c.memDecode(cs, ch, arrive, del)
	if !accepted {
		if c.canRecover(del) {
			return c.retryLeg(cs, ch, h, c.requestFailAt(cs, ch, arrive, del, decodeDone))
		}
		c.legFailed(h.dummy, false)
		return decodeDone, false
	}
	done, ok = c.serve(cs, ch, h, padBase, del, dAddr, decodeDone)
	if !ok {
		if c.cfg.Recovery {
			return c.retryLeg(cs, ch, h, c.replyFailAt(ch, done))
		}
		c.legFailed(h.dummy, false)
	}
	return done, ok
}

// serve is the memory-side service of one accepted request of the slot
// group at padBase: the PCM access, the store of a carried write block,
// and a read's reply. It returns the leg's completion time; ok is false
// only when the reply failed.
func (c *Controller) serve(cs *chanState, ch int, h half, padBase uint64, del *bus.Packet, addr uint64, decodeDone sim.Time) (sim.Time, bool) {
	if h.t == bus.Write {
		// Memory-side transit decryption of the carried at-rest
		// ciphertext, then store.
		if h.blk != nil && !h.dummy {
			c.mem.StoreBlock(addr, c.transitOpenRequest(cs, ch, padBase, del.Data))
		}
		return c.memAccessForWrite(ch, decodeDone, addr, h.dummy), true
	}
	dataReady := c.memAccessForRead(ch, decodeDone, addr, h.dummy)
	if c.cfg.TimingOblivious {
		dataReady = padReply(decodeDone, dataReady)
	}
	return c.reply(cs, ch, dataReady, h.dummy, addr, decodeDone, h.blk)
}

// Write services one timing-only LLC writeback; see WriteBlock.
func (c *Controller) Write(at sim.Time, addr uint64, atRestReady sim.Time) sim.Time {
	return c.WriteBlock(at, addr, atRestReady, nil)
}

// WriteBlock services one LLC writeback. atRestReady is when the at-rest
// ciphertext (from the memory-encryption engine) is available. Writes are
// posted; the returned time is when the write half reached the memory (for
// occupancy accounting), not a stall. A non-nil blk is the at-rest
// ciphertext to store; nil models timing only.
func (c *Controller) WriteBlock(at sim.Time, addr uint64, atRestReady sim.Time, blk *memctl.Block) sim.Time {
	c.resetArena()
	ch := c.ChannelOf(addr)
	cs := c.chans[ch]
	c.stats.RealWrites++
	c.met.realWrites.Inc()
	if cs.quarantined {
		c.legFailed(false, true)
		return at
	}

	w := pendingWrite{at: at, addr: addr, atRestReady: atRestReady, blk: blk}
	// A value write bypasses the substitute-real queue so the store, and
	// any in-flight corruption, happen at the write, where Observation 4's
	// tests look for them.
	if c.cfg.SubstituteReal && blk == nil {
		cs.pushWrite(w)
		if cs.queuedWrites() > writeQueueCap {
			return c.issueWritePair(cs, ch, at, cs.popWrite())
		}
		return at
	}
	c.injectInterChannel(at, ch)
	return c.issueWritePair(cs, ch, at, w)
}

// issueWritePair sends (dummy read, real write) as a read-then-write pair.
func (c *Controller) issueWritePair(cs *chanState, ch int, at sim.Time, w pendingWrite) sim.Time {
	if cs.quarantined {
		// Covers queued substitute-real writes draining after the channel
		// fail-stopped: refused and accounted, not issued.
		c.legFailed(false, true)
		return at
	}
	if c.cfg.TimingOblivious {
		at = c.quantize(cs, ch, at)
	}
	at = c.acquireFrontEnd(at)
	padBase := cs.reqCtr
	cs.reqCtr += slotGroup
	_, sendReady := c.requestCrypto(cs, ch, at, true, true)

	readH := half{t: bus.Read, addr: c.dummyAddrFor(cs, w.addr, ch), dummy: true, ready: sendReady}
	writeH := half{t: bus.Write, addr: w.addr, ready: max(sendReady, w.atRestReady), blk: w.blk}
	_, _, writeDone := c.issuePair(cs, ch, padBase, readH, writeH)
	return writeDone
}

// memAccessForRead performs the memory-side PCM access for a decoded read.
// Fixed-address dummy reads are answered with garbage without touching PCM.
func (c *Controller) memAccessForRead(ch int, at sim.Time, addr uint64, isDummy bool) sim.Time {
	if isDummy {
		// Timing-oblivious operation never drops dummies: service timing
		// must be workload-independent (Section 6.2).
		if c.cfg.Dummy == FixedAddress && !c.cfg.TimingOblivious {
			c.stats.DroppedAtMemory++
			c.met.droppedAtMemory.Inc()
			c.mem.DropDummy(at, ch)
			return at
		}
		c.stats.DummyPCMReads++
		return c.mem.AccessOnChannel(at, ch, addr, false)
	}
	return c.mem.AccessOnChannel(at, ch, addr, false)
}

// memAccessForWrite performs the memory-side PCM access for a decoded
// write; fixed-address dummy writes are dropped (Observation 2).
func (c *Controller) memAccessForWrite(ch int, at sim.Time, addr uint64, isDummy bool) sim.Time {
	if isDummy {
		if c.cfg.Dummy == FixedAddress && !c.cfg.TimingOblivious {
			c.stats.DroppedAtMemory++
			c.met.droppedAtMemory.Inc()
			c.mem.DropDummy(at, ch)
			return at
		}
		c.stats.DummyPCMWrites++
		return c.mem.AccessOnChannel(at, ch, addr, true)
	}
	return c.mem.AccessOnChannel(at, ch, addr, true)
}

// injectInterChannel applies the Section 3.4 policy: when a real request
// issues on one channel, idle (OPT) or all (UNOPT) other channels receive a
// dummy pair so that observers cannot localise activity.
func (c *Controller) injectInterChannel(at sim.Time, realCh int) {
	if c.cfg.Policy == PolicyNone || len(c.chans) == 1 {
		return
	}
	for ch := range c.chans {
		if ch == realCh {
			continue
		}
		cs := c.chans[ch]
		if cs.quarantined {
			// A fail-stopped channel carries no traffic at all; observers
			// see it dark, which is what fail-stop means.
			continue
		}
		if !CoverNeeded(c.cfg.Policy, c.bus.IdleAt(ch, at), cs.lastReqWire, at) {
			continue
		}
		c.injectPair(at, ch)
	}
}

// injectPair sends a full dummy (read, write) pair on a channel.
func (c *Controller) injectPair(at sim.Time, ch int) {
	cs := c.chans[ch]
	if cs.quarantined {
		return
	}
	c.stats.InterChannelPairs++
	c.met.interChannelPairs.Inc()
	at = c.acquireFrontEnd(at)
	padBase := cs.reqCtr
	cs.reqCtr += slotGroup
	// Dummy pairs skip the slack histogram (real-request metric) but still
	// occupy both MAC slots.
	_, sendReady := c.requestCrypto(cs, ch, at, true, false)
	dAddr := c.dummyAddrFor(cs, cs.dummyAddr, ch)
	readH := half{t: bus.Read, addr: dAddr, dummy: true, ready: sendReady}
	writeH := half{t: bus.Write, addr: dAddr, dummy: true, ready: sendReady}
	c.issuePair(cs, ch, padBase, readH, writeH)
}

// Drain flushes pending substitute-real writes (end of run, or a fence).
func (c *Controller) Drain(at sim.Time) {
	c.resetArena()
	for ch, cs := range c.chans {
		for cs.queuedWrites() > 0 {
			c.issueWritePair(cs, ch, at, cs.popWrite())
		}
	}
}

// PadsProc and PadsMem return total pads generated on each side (for the
// Section 5.2 energy analysis).
func (c *Controller) PadsProc() uint64 {
	var n uint64
	for _, cs := range c.chans {
		n += cs.procReqEng.Pads() + cs.procRespEng.Pads()
	}
	return n
}

// PadsMem returns memory-side pad count.
func (c *Controller) PadsMem() uint64 {
	var n uint64
	for _, cs := range c.chans {
		n += cs.memReqEng.Pads() + cs.memRespEng.Pads()
	}
	return n
}

// CryptoEnergyPJ returns total AES+MD5 energy across both sides.
func (c *Controller) CryptoEnergyPJ() float64 {
	var e float64
	for _, cs := range c.chans {
		e += cs.procReqEng.EnergyPJ() + cs.procRespEng.EnergyPJ()
		e += cs.memReqEng.EnergyPJ() + cs.memRespEng.EnergyPJ()
		e += cs.procMAC.EnergyPJ() + cs.procVerMAC.EnergyPJ() + cs.memMAC.EnergyPJ()
	}
	return e
}
