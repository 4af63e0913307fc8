package aes

import (
	"crypto/subtle"
	"encoding/binary"
)

// Pad is a 16-byte one-time pad produced by encrypting an IV in counter
// mode. ObfusMem XORs pads with commands, addresses, and data (Fig 2/3 of
// the paper).
type Pad [BlockSize]byte

// XOR applies the pad to buf in place. Buffers shorter than a pad use a
// prefix of it; longer buffers panic (callers must split across pads).
func (p *Pad) XOR(buf []byte) {
	if len(buf) > BlockSize {
		panic("aes: buffer longer than one pad")
	}
	subtle.XORBytes(buf, buf, p[:len(buf)])
}

// IV builds a counter-mode initialization vector. The layout mirrors the
// paper's description of memory encryption IVs: a 64-bit identifier (page ID
// or channel/session ID), a 32-bit offset (page offset or direction tag),
// and a 32-bit counter slot; for bus encryption the 64-bit session counter
// spans the last two words.
type IV struct {
	ID      uint64
	Counter uint64
}

// Bytes serialises the IV into a single AES block.
func (iv IV) Bytes() [BlockSize]byte {
	var b [BlockSize]byte
	binary.BigEndian.PutUint64(b[0:8], iv.ID)
	binary.BigEndian.PutUint64(b[8:16], iv.Counter)
	return b
}

// CTR generates counter-mode pads from a cipher.
type CTR struct {
	c *Cipher
}

// NewCTR wraps a cipher for pad generation.
func NewCTR(c *Cipher) *CTR { return &CTR{c: c} }

// Pad returns the pad for a single IV. Consecutive counters give the "six
// pads" schedule of Figure 3: one for the real command+address, one for the
// dummy command+address, and four for the 64-byte data block.
func (ct *CTR) Pad(iv IV) Pad {
	c := ct.c
	c.buf = iv.Bytes()
	c.b.Encrypt(c.buf[:], c.buf[:])
	return c.buf
}

// EncryptBlock64 XORs a 64-byte payload with four consecutive pads in place.
func (ct *CTR) EncryptBlock64(data []byte, iv IV) {
	if len(data) != 64 {
		panic("aes: EncryptBlock64 needs a 64-byte block")
	}
	for i := 0; i < 4; i++ {
		p := ct.Pad(IV{ID: iv.ID, Counter: iv.Counter + uint64(i)})
		p.XOR(data[i*16 : i*16+16])
	}
}

// ECB encrypts a single block directly (Electronic Code Book). It exists to
// model the paper's strawman address-encryption mode, whose temporal-pattern
// and footprint leakage the attack package demonstrates.
func (ct *CTR) ECB(block [BlockSize]byte) [BlockSize]byte {
	var out [BlockSize]byte
	ct.c.Encrypt(out[:], block[:])
	return out
}
