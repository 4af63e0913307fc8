package aes

// The FIPS-197 reference implementation the production Cipher is
// differentially tested against: the S-box computed from the GF(2^8)
// inverse and affine transform, the key expansion, and the straight-line
// SubBytes/ShiftRows/MixColumns round functions as separate passes.

// rounds for AES-128.
const numRounds = 10

// sbox is the AES S-box, generated in init from the finite-field inverse
// composed with the affine transform, rather than pasted as a table: building
// it is both a correctness cross-check and documentation of the math.
var sbox [256]byte
var invSbox [256]byte

// mul multiplies two elements of GF(2^8) with the AES reduction polynomial
// x^8 + x^4 + x^3 + x + 1 (0x11b).
func mul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// inverse returns the multiplicative inverse in GF(2^8); inverse(0) = 0.
func inverse(a byte) byte {
	if a == 0 {
		return 0
	}
	// a^(2^8-2) = a^254 by square-and-multiply.
	result := byte(1)
	base := a
	exp := 254
	for exp > 0 {
		if exp&1 == 1 {
			result = mul(result, base)
		}
		base = mul(base, base)
		exp >>= 1
	}
	return result
}

func init() {
	for i := 0; i < 256; i++ {
		inv := inverse(byte(i))
		// Affine transform: s = inv ^ rot1 ^ rot2 ^ rot3 ^ rot4 ^ 0x63.
		s := inv
		for r := 1; r <= 4; r++ {
			s ^= (inv << r) | (inv >> (8 - r))
		}
		s ^= 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
}

// specCipher is an expanded AES-128 key schedule for the reference path.
type specCipher struct {
	enc [4 * (numRounds + 1)]uint32 // round keys as big-endian words
}

func newSpecCipher(key []byte) *specCipher {
	if len(key) != KeySize {
		panic("aes: reference cipher needs a 16-byte key")
	}
	c := &specCipher{}
	c.expandKey(key)
	return c
}

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[(w>>16)&0xff])<<16 |
		uint32(sbox[(w>>8)&0xff])<<8 | uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

var rcon = [10]uint32{
	0x01000000, 0x02000000, 0x04000000, 0x08000000, 0x10000000,
	0x20000000, 0x40000000, 0x80000000, 0x1b000000, 0x36000000,
}

func (c *specCipher) expandKey(key []byte) {
	for i := 0; i < 4; i++ {
		c.enc[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	for i := 4; i < len(c.enc); i++ {
		t := c.enc[i-1]
		if i%4 == 0 {
			t = subWord(rotWord(t)) ^ rcon[i/4-1]
		}
		c.enc[i] = c.enc[i-4] ^ t
	}
}

// state helpers: the AES state is 16 bytes, column-major (FIPS-197 §3.4).

func addRoundKey(s *[16]byte, rk []uint32) {
	for col := 0; col < 4; col++ {
		w := rk[col]
		s[4*col+0] ^= byte(w >> 24)
		s[4*col+1] ^= byte(w >> 16)
		s[4*col+2] ^= byte(w >> 8)
		s[4*col+3] ^= byte(w)
	}
}

func subBytes(s *[16]byte) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func invSubBytes(s *[16]byte) {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
}

// shiftRows rotates row r left by r. State byte (row r, col c) is s[4c+r].
func shiftRows(s *[16]byte) {
	var t [16]byte
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			t[4*c+r] = s[4*((c+r)%4)+r]
		}
	}
	*s = t
}

func invShiftRows(s *[16]byte) {
	var t [16]byte
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			t[4*((c+r)%4)+r] = s[4*c+r]
		}
	}
	*s = t
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = mul(a0, 2) ^ mul(a1, 3) ^ a2 ^ a3
		s[4*c+1] = a0 ^ mul(a1, 2) ^ mul(a2, 3) ^ a3
		s[4*c+2] = a0 ^ a1 ^ mul(a2, 2) ^ mul(a3, 3)
		s[4*c+3] = mul(a0, 3) ^ a1 ^ a2 ^ mul(a3, 2)
	}
}

func invMixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = mul(a0, 14) ^ mul(a1, 11) ^ mul(a2, 13) ^ mul(a3, 9)
		s[4*c+1] = mul(a0, 9) ^ mul(a1, 14) ^ mul(a2, 11) ^ mul(a3, 13)
		s[4*c+2] = mul(a0, 13) ^ mul(a1, 9) ^ mul(a2, 14) ^ mul(a3, 11)
		s[4*c+3] = mul(a0, 11) ^ mul(a1, 13) ^ mul(a2, 9) ^ mul(a3, 14)
	}
}

// encryptSpec encrypts one block with the straight-line FIPS-197 round
// functions.
func (c *specCipher) encryptSpec(dst, src []byte) {
	var s [16]byte
	copy(s[:], src[:16])
	addRoundKey(&s, c.enc[0:4])
	for round := 1; round < numRounds; round++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, c.enc[4*round:4*round+4])
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, c.enc[4*numRounds:4*numRounds+4])
	copy(dst[:16], s[:])
}

// decryptSpec is the FIPS-197 inverse cipher (§5.3).
func (c *specCipher) decryptSpec(dst, src []byte) {
	var s [16]byte
	copy(s[:], src[:16])
	addRoundKey(&s, c.enc[4*numRounds:4*numRounds+4])
	for round := numRounds - 1; round >= 1; round-- {
		invShiftRows(&s)
		invSubBytes(&s)
		addRoundKey(&s, c.enc[4*round:4*round+4])
		invMixColumns(&s)
	}
	invShiftRows(&s)
	invSubBytes(&s)
	addRoundKey(&s, c.enc[0:4])
	copy(dst[:16], s[:])
}
