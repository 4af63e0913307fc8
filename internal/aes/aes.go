// Package aes provides the AES-128 block cipher together with the
// counter-mode pad generation and the timing and energy parameters of the pipelined
// hardware engine that ObfusMem places on each side of each memory channel.
//
// The functional cipher is the standard library's crypto/aes (AES-NI on
// amd64), so every pad the simulator XORs onto the bus is real AES-128. The
// package tests check it against an in-repo FIPS-197 reference: the S-box
// computed from the GF(2^8) inverse and the straight-line round functions.
package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// Cipher is an expanded AES-128 key schedule.
//
// Encrypt and Decrypt pass the block through buf rather than handing the
// caller's slices to the cipher.Block interface method, which would make
// them escape and cost one heap allocation per pad. The scratch makes a
// Cipher single-goroutine: each one belongs to exactly one owner (an obfus
// channel, a ctrmode engine, or one open-loop lane), and engines share a
// Cipher only within that owner.
type Cipher struct {
	b   cipher.Block
	buf [BlockSize]byte
}

// NewCipher expands a 16-byte key. It returns an error for any other length
// so callers surface key-management bugs instead of panicking deep in the
// datapath.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: invalid key size %d (want %d)", len(key), KeySize)
	}
	b, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Cipher{b: b}, nil
}

// Encrypt encrypts one 16-byte block. dst and src may overlap.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	copy(c.buf[:], src[:BlockSize])
	c.b.Encrypt(c.buf[:], c.buf[:])
	copy(dst[:BlockSize], c.buf[:])
}

// Decrypt decrypts one 16-byte block. dst and src may overlap.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	copy(c.buf[:], src[:BlockSize])
	c.b.Decrypt(c.buf[:], c.buf[:])
	copy(dst[:BlockSize], c.buf[:])
}
