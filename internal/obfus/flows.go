package obfus

import (
	"obfusmem/internal/bus"
	"obfusmem/internal/memctl"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// Read services one LLC demand miss: the full ObfusMem round trip. It
// returns the time the (at-rest-encrypted) block is available at the
// processor and whether the request completed authentically (false only
// under active tampering or packet loss).
func (c *Controller) Read(at sim.Time, addr uint64) (done sim.Time, ok bool) {
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

	if c.cfg.Symmetric {
		c.injectInterChannel(at, ch)
		done, ok = c.symmetricRequest(cs, ch, at, bus.Read, addr, at)
		return done, ok
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
				trace.A("write_addr", w.addr))
		}
	}

	at = c.acquireFrontEnd(at)
	padBase := cs.reqCtr
	cs.reqCtr += 6 // Fig 3: 1 real cmd + 1 dummy cmd + 4 data pads
	// Second digest covers the write half of the pair.
	_, sendReady := c.requestCrypto(cs, ch, at, 6, true, true)

	// Assemble the two halves.
	readH := half{t: bus.Read, addr: addr, dummy: false, withData: false, ready: sendReady}
	wAddr := c.dummyAddrFor(cs, addr, ch)
	wDummy := true
	wReady := sendReady
	if writeHalf != nil {
		wAddr = writeHalf.addr
		wDummy = false
		if writeHalf.atRestReady > wReady {
			wReady = writeHalf.atRestReady
		}
	}
	writeH := half{t: bus.Write, addr: wAddr, dummy: wDummy, withData: true, ready: wReady}

	readDone, readOK, _ := c.issuePair(cs, ch, padBase, readH, writeH)
	return readDone, readOK
}

// half is one member of a read/write request pair.
type half struct {
	t        bus.ReqType
	addr     uint64
	dummy    bool
	withData bool
	ready    sim.Time
	// payload, when non-nil, is carried through the value-level datapath
	// (write halves); wantData requests the stored block back (read
	// halves).
	payload  *memctl.Block
	wantData bool
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
	arrive1, del1 := c.sendPacket(cs, ch, first.ready, first.t, first.addr, first.dummy, first.withData, padBase, c.sealPayload(cs, ch, padBase, first.payload))
	arrive2, del2 := c.sendPacket(cs, ch, second.ready, second.t, second.addr, second.dummy, second.withData, padBase+1, c.sealPayload(cs, ch, padBase, second.payload))

	d1, ok1 := c.processHalf(cs, ch, padBase, first, arrive1, del1)
	d2, ok2 := c.processHalf(cs, ch, padBase, second, arrive2, del2)
	if first.t == bus.Read {
		readDone, readOK, writeDone = d1, ok1, d2
	} else {
		readDone, readOK, writeDone = d2, ok2, d1
	}
	last := arrive1
	if arrive2 > last {
		last = arrive2
	}
	if last > cs.lastReqWire {
		cs.lastReqWire = last
	}
	return readDone, readOK, writeDone
}

// processHalf runs the memory side for one delivered half of a pair:
// decode, PCM access, and (for reads) the reply leg, with recovery when
// configured. It returns the leg's completion time; ok is meaningful for
// read halves only (writes are posted). This used to be a closure inside
// issuePair capturing the pair's result variables; as a method the pair
// issue path stays allocation-free.
func (c *Controller) processHalf(cs *chanState, ch int, padBase uint64, h half, arrive sim.Time, del *bus.Packet) (done sim.Time, ok bool) {
	if cs.quarantined {
		// The pair's other half exhausted the retry budget while this
		// packet was in flight; the memory side is fail-stopped.
		c.legFailed(h.dummy, true)
		return arrive, false
	}
	t, dAddr, decodeDone, accepted := c.memDecode(cs, ch, arrive, del)
	if !accepted {
		if c.canRecover(del) {
			return c.retryLeg(cs, ch, h, c.requestFailAt(cs, ch, arrive, del, decodeDone))
		}
		c.legFailed(h.dummy, false)
		return decodeDone, false
	}
	if h.t == bus.Read {
		dataReady := c.memAccessForRead(cs, ch, decodeDone, t, dAddr, h.dummy)
		if c.cfg.TimingOblivious {
			dataReady = padReply(decodeDone, dataReady)
		}
		var blk []byte
		if h.wantData && !h.dummy {
			stored := c.mem.LoadBlock(dAddr)
			blk = c.transitSealReply(cs, ch, cs.respCtr, stored)
		}
		done, ok = c.replyData(cs, ch, dataReady, h.dummy, dAddr, decodeDone, h.wantData, blk)
		if !ok {
			if c.recoveryOn() {
				failAt := done
				if c.lastReplyLost {
					// A vanished reply is only detectable by timer.
					failAt = done + c.retryTimeout()
					if c.tr != nil {
						c.tr.Span(trace.ChannelPID(ch), "recovery", trace.CatQueue,
							names.SpanRetryTimer, done, failAt)
					}
				}
				return c.retryLeg(cs, ch, h, failAt)
			}
			c.legFailed(h.dummy, false)
		}
		return done, ok
	}
	// Memory-side transit decryption of the carried at-rest ciphertext,
	// then store.
	if !h.dummy && h.payload != nil && del != nil {
		c.mem.StoreBlock(dAddr, c.transitOpenRequest(cs, ch, padBase, del.Data))
	}
	return c.memAccessForWrite(cs, ch, decodeDone, dAddr, h.dummy), true
}

// Write services one LLC writeback. atRestReady is when the at-rest
// ciphertext (from the memory-encryption engine) is available. Writes are
// posted; the returned time is when the write half reached the memory (for
// occupancy accounting), not a stall.
func (c *Controller) Write(at sim.Time, addr uint64, atRestReady sim.Time) sim.Time {
	c.resetArena()
	ch := c.ChannelOf(addr)
	cs := c.chans[ch]
	c.stats.RealWrites++
	c.met.realWrites.Inc()
	if cs.quarantined {
		c.legFailed(false, true)
		return at
	}

	if c.cfg.Symmetric {
		if c.cfg.TimingOblivious {
			at = c.quantize(cs, ch, at)
		}
		c.injectInterChannel(at, ch)
		done, _ := c.symmetricRequest(cs, ch, at, bus.Write, addr, atRestReady)
		return done
	}

	if c.cfg.SubstituteReal {
		cs.pushWrite(pendingWrite{at: at, addr: addr, atRestReady: atRestReady})
		if cs.queuedWrites() > writeQueueCap {
			return c.issueWritePair(cs, ch, at, cs.popWrite())
		}
		return at
	}
	c.injectInterChannel(at, ch)
	return c.issueWritePair(cs, ch, at, pendingWrite{at: at, addr: addr, atRestReady: atRestReady})
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
	cs.reqCtr += 6
	_, sendReady := c.requestCrypto(cs, ch, at, 6, true, true)

	rAddr := c.dummyAddrFor(cs, w.addr, ch)
	wReady := sendReady
	if w.atRestReady > wReady {
		wReady = w.atRestReady
	}
	readH := half{t: bus.Read, addr: rAddr, dummy: true, withData: false, ready: sendReady}
	writeH := half{t: bus.Write, addr: w.addr, dummy: false, withData: true, ready: wReady, payload: w.data}
	_, _, writeDone := c.issuePair(cs, ch, padBase, readH, writeH)
	return writeDone
}

// memAccessForRead performs the memory-side PCM access for a decoded read.
// Fixed-address dummy reads are answered with garbage without touching PCM.
func (c *Controller) memAccessForRead(cs *chanState, ch int, at sim.Time, t bus.ReqType, addr uint64, isDummy bool) sim.Time {
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
func (c *Controller) memAccessForWrite(cs *chanState, ch int, at sim.Time, addr uint64, isDummy bool) sim.Time {
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

// symmetricRequest implements the Section 3.3 alternative: every request is
// cmd+data and every request receives a data reply, making types
// indistinguishable by size instead of by pairing.
func (c *Controller) symmetricRequest(cs *chanState, ch int, at sim.Time, t bus.ReqType, addr uint64, atRestReady sim.Time) (sim.Time, bool) {
	at = c.acquireFrontEnd(at)
	padBase := cs.reqCtr
	cs.reqCtr += 5 // 1 cmd + 4 data
	_, sendReady := c.requestCrypto(cs, ch, at, 5, false, true)
	if atRestReady > sendReady {
		sendReady = atRestReady
	}
	arrive, delivered := c.sendPacket(cs, ch, sendReady, t, addr, false, true, padBase, nil)
	if arrive > cs.lastReqWire {
		cs.lastReqWire = arrive
	}
	h := half{t: t, addr: addr, dummy: false, withData: true, ready: sendReady}
	dt, dAddr, decodeDone, accepted := c.memDecode(cs, ch, arrive, delivered)
	if !accepted {
		if c.canRecover(delivered) {
			return c.retryLeg(cs, ch, h, c.requestFailAt(cs, ch, arrive, delivered, decodeDone))
		}
		c.legFailed(false, false)
		return decodeDone, false
	}
	var dataReady sim.Time
	replyIsDummy := dt == bus.Write
	if dt == bus.Read {
		dataReady = c.mem.AccessOnChannel(decodeDone, ch, dAddr, false)
	} else {
		c.mem.AccessOnChannel(decodeDone, ch, dAddr, true)
		dataReady = decodeDone
	}
	if c.cfg.TimingOblivious {
		dataReady = padReply(decodeDone, dataReady)
	}
	done, ok := c.reply(cs, ch, dataReady, replyIsDummy, dAddr, decodeDone)
	if !ok {
		if c.recoveryOn() {
			failAt := done
			if c.lastReplyLost {
				failAt = done + c.retryTimeout()
				if c.tr != nil {
					c.tr.Span(trace.ChannelPID(ch), "recovery", trace.CatQueue,
						names.SpanRetryTimer, done, failAt)
				}
			}
			return c.retryLeg(cs, ch, h, failAt)
		}
		c.legFailed(false, false)
	}
	return done, ok
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
	cs.reqCtr += 6
	// Dummy pairs skip the slack histogram (real-request metric) but still
	// occupy both MAC slots.
	_, sendReady := c.requestCrypto(cs, ch, at, 6, true, false)
	dAddr := c.dummyAddrFor(cs, cs.dummyAddr, ch)
	readH := half{t: bus.Read, addr: dAddr, dummy: true, withData: false, ready: sendReady}
	writeH := half{t: bus.Write, addr: dAddr, dummy: true, withData: true, ready: sendReady}
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
		e += cs.procMAC.EnergyPJ() + cs.memMAC.EnergyPJ()
	}
	return e
}
