package md5sim

import (
	"encoding/binary"
	"math"
)

// The RFC 1321 reference implementation the production Digest is
// differentially tested against.

// shift amounts per round (RFC 1321).
var shifts = [64]uint{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

// sines holds K[i] = floor(2^32 * |sin(i+1)|), computed at init time from
// the definition rather than pasted, as a self-check of the constant table.
var sines [64]uint32

func init() {
	for i := 0; i < 64; i++ {
		sines[i] = uint32(math.Floor(math.Abs(math.Sin(float64(i+1))) * (1 << 32)))
	}
}

// state is the running MD5 chaining value.
type state struct{ a, b, c, d uint32 }

// block folds one 64-byte block into the chaining value (RFC 1321 §3.4).
func (st *state) block(p []byte) {
	var m [16]uint32
	for i := 0; i < 16; i++ {
		m[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	a, b, c, d := st.a, st.b, st.c, st.d
	for i := 0; i < 64; i++ {
		var f uint32
		var g int
		switch {
		case i < 16:
			f = (b & c) | (^b & d)
			g = i
		case i < 32:
			f = (d & b) | (^d & c)
			g = (5*i + 1) % 16
		case i < 48:
			f = b ^ c ^ d
			g = (3*i + 5) % 16
		default:
			f = c ^ (b | ^d)
			g = (7 * i) % 16
		}
		f = f + a + sines[i] + m[g]
		a = d
		d = c
		c = b
		b = b + (f<<shifts[i] | f>>(32-shifts[i]))
	}
	st.a += a
	st.b += b
	st.c += c
	st.d += d
}

// referenceDigest computes the MD5 hash of msg with the RFC 1321 block
// function and Merkle-Damgård padding (0x80, zeros, 64-bit little-endian
// bit length).
func referenceDigest(msg []byte) [Size]byte {
	st := state{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	bitLen := uint64(len(msg)) * 8
	for len(msg) >= BlockSize {
		st.block(msg[:BlockSize])
		msg = msg[BlockSize:]
	}
	// The tail plus padding spans one block, or two when the remaining
	// bytes leave fewer than 8 bytes for the length field.
	var tail [2 * BlockSize]byte
	n := copy(tail[:], msg)
	tail[n] = 0x80
	end := BlockSize
	if n+1 > BlockSize-8 {
		end = 2 * BlockSize
	}
	binary.LittleEndian.PutUint64(tail[end-8:], bitLen)
	st.block(tail[:BlockSize])
	if end == 2*BlockSize {
		st.block(tail[BlockSize:])
	}

	var out [Size]byte
	binary.LittleEndian.PutUint32(out[0:], st.a)
	binary.LittleEndian.PutUint32(out[4:], st.b)
	binary.LittleEndian.PutUint32(out[8:], st.c)
	binary.LittleEndian.PutUint32(out[12:], st.d)
	return out
}
