package obfus

import (
	"obfusmem/internal/aes"
	"obfusmem/internal/memctl"
)

// Value-carrying requests: ReadBlock and WriteBlock take an optional
// block, and a non-nil one moves real 64-byte payloads through the same
// ObfusMem datapath a timing-only request takes — transit encryption with
// the data pads of the slot group's counter schedule on the way to the
// memory, storage of the at-rest ciphertext in the module's functional
// store, and transit re-encryption of replies (Observation 1). Wire
// shape, timing, metrics and spans do not depend on whether a block rides
// the request (a value write only skips the substitute-real queue), so
// value-level properties (round-trips, tamper corruption, Merkle
// detection) are tested on the datapath the timing results come from.

// dataPad returns the first of the four data pads of the slot group at
// padBase: a group is two command pads then the data pads (Fig 3).
func dataPad(padBase uint64) uint64 { return padBase + 2 }

// transitSealRequest encrypts an at-rest ciphertext block for the
// processor-to-memory hop using the data pads of the slot group at
// padBase. The returned slice aliases the channel's seal scratch buffer;
// it is consumed (copied into the memory module) before the next group
// seals.
func (c *Controller) transitSealRequest(cs *chanState, ch int, padBase uint64, data *memctl.Block) []byte {
	buf := cs.sealBuf[:]
	copy(buf, data[:])
	cs.ctr.EncryptBlock64(buf, aes.IV{ID: uint64(ch), Counter: dataPad(padBase)})
	return buf
}

// transitOpenRequest is the memory-side inverse. wire may alias the seal
// scratch buffer; decryption happens in the returned value, never in place.
func (c *Controller) transitOpenRequest(cs *chanState, ch int, padBase uint64, wire []byte) (out memctl.Block) {
	copy(out[:], wire)
	cs.ctr.EncryptBlock64(out[:], aes.IV{ID: uint64(ch), Counter: dataPad(padBase)})
	return out
}

// transitSealReply / transitOpenReply use the reply-direction counters; the
// sealed reply aliases the channel's reply scratch buffer with the same
// one-in-flight discipline as transitSealRequest.
func (c *Controller) transitSealReply(cs *chanState, ch int, respCtr uint64, data memctl.Block) []byte {
	buf := cs.replyBuf[:]
	copy(buf, data[:])
	cs.ctr.EncryptBlock64(buf, aes.IV{ID: uint64(ch) | 1<<32, Counter: respCtr})
	return buf
}

func (c *Controller) transitOpenReply(cs *chanState, ch int, respCtr uint64, wire []byte, out *memctl.Block) {
	copy(out[:], wire)
	cs.ctr.EncryptBlock64(out[:], aes.IV{ID: uint64(ch) | 1<<32, Counter: respCtr})
}
