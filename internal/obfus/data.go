package obfus

import (
	"obfusmem/internal/aes"
	"obfusmem/internal/bus"
	"obfusmem/internal/memctl"
	"obfusmem/internal/sim"
)

// Value-carrying mode: ReadData and WriteData move real 64-byte payloads
// through the full ObfusMem datapath — transit encryption with the data
// pads of the Fig 3 counter schedule on the way to the memory, storage of
// the at-rest ciphertext in the module's functional store, and transit
// re-encryption of replies (Observation 1). The plain Read/Write entry
// points model timing only; these two additionally carry bytes, so
// value-level properties (round-trips, tamper corruption, Merkle
// detection) are testable end to end.

// transitSealRequest encrypts an at-rest ciphertext block for the
// processor-to-memory hop using the pair's data pads (padBase+2..+5). The
// returned slice aliases the channel's seal scratch buffer; it is consumed
// (copied into the memory module) before the next pair seals.
func (c *Controller) transitSealRequest(cs *chanState, ch int, padBase uint64, data *memctl.Block) []byte {
	buf := cs.sealBuf[:]
	copy(buf, data[:])
	cs.procReqEng.CTR().EncryptBlock64(buf, aes.IV{ID: uint64(ch), Counter: padBase + 2})
	return buf
}

// transitOpenRequest is the memory-side inverse. wire may alias the seal
// scratch buffer; decryption happens in the returned value, never in place.
func (c *Controller) transitOpenRequest(cs *chanState, ch int, padBase uint64, wire []byte) (out memctl.Block) {
	copy(out[:], wire)
	cs.memReqEng.CTR().EncryptBlock64(out[:], aes.IV{ID: uint64(ch), Counter: padBase + 2})
	return out
}

// transitSealReply / transitOpenReply use the reply-direction counters; the
// sealed reply aliases the channel's reply scratch buffer with the same
// one-in-flight discipline as transitSealRequest.
func (c *Controller) transitSealReply(cs *chanState, ch int, respCtr uint64, data memctl.Block) []byte {
	buf := cs.replyBuf[:]
	copy(buf, data[:])
	cs.memRespEng.CTR().EncryptBlock64(buf, aes.IV{ID: uint64(ch) | 1<<32, Counter: respCtr})
	return buf
}

func (c *Controller) transitOpenReply(cs *chanState, ch int, respCtr uint64, wire []byte) (out memctl.Block) {
	copy(out[:], wire)
	cs.procRespEng.CTR().EncryptBlock64(out[:], aes.IV{ID: uint64(ch) | 1<<32, Counter: respCtr})
	return out
}

// WriteData performs a value-carrying writeback: the at-rest ciphertext in
// `data` is transit-encrypted, shipped as the write half of a pair, and
// stored in the memory module. Bypasses the substitute-real queue so the
// store is immediate and deterministic for callers.
func (c *Controller) WriteData(at sim.Time, addr uint64, atRestReady sim.Time, data memctl.Block) sim.Time {
	c.resetArena()
	ch := c.ChannelOf(addr)
	cs := c.chans[ch]
	c.stats.RealWrites++
	if cs.quarantined {
		c.legFailed(false, true)
		return at
	}
	if c.cfg.TimingOblivious {
		at = c.quantize(cs, ch, at)
	}
	c.injectInterChannel(at, ch)
	w := pendingWrite{at: at, addr: addr, atRestReady: atRestReady, data: &data}
	return c.issueWritePair(cs, ch, at, w)
}

// ReadData performs a value-carrying demand read, returning the at-rest
// ciphertext block stored at addr.
func (c *Controller) ReadData(at sim.Time, addr uint64) (memctl.Block, sim.Time, bool) {
	c.resetArena()
	ch := c.ChannelOf(addr)
	cs := c.chans[ch]
	c.stats.RealReads++
	if cs.quarantined {
		c.legFailed(false, true)
		return memctl.Block{}, at, false
	}
	if c.cfg.TimingOblivious {
		at = c.quantize(cs, ch, at)
	}
	c.injectInterChannel(at, ch)

	at2 := c.frontEnd.Acquire(at, FrontEndTime) + FrontEndTime
	padBase := cs.reqCtr
	cs.reqCtr += 6
	encReady := pregenReady(cs.procReqEng, at2, 6)
	sendReady := macRequestReady(cs.procMAC, c.cfg.MAC, at2, encReady)
	if c.cfg.MAC != MACNone {
		macRequestReady(cs.procMAC, c.cfg.MAC, at2, encReady)
	}
	readH := half{t: bus.Read, addr: addr, dummy: false, withData: false, ready: sendReady, wantData: true}
	writeH := half{t: bus.Write, addr: c.dummyAddrFor(cs, addr, ch), dummy: true, withData: true, ready: sendReady}
	readDone, readOK, _ := c.issuePair(cs, ch, padBase, readH, writeH)
	return c.lastReadData, readDone, readOK
}
