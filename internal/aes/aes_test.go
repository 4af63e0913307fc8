package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"obfusmem/internal/xrand"
)

// FIPS-197 Appendix C.1 test vector.
func TestFIPS197Vector(t *testing.T) {
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	pt, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	wantCT, _ := hex.DecodeString("69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, pt)
	if !bytes.Equal(got, wantCT) {
		t.Fatalf("Encrypt = %x, want %x", got, wantCT)
	}
	back := make([]byte, 16)
	c.Decrypt(back, got)
	if !bytes.Equal(back, pt) {
		t.Fatalf("Decrypt = %x, want %x", back, pt)
	}
	ref := newSpecCipher(key)
	ref.encryptSpec(got, pt)
	if !bytes.Equal(got, wantCT) {
		t.Fatalf("encryptSpec = %x, want %x", got, wantCT)
	}
	ref.decryptSpec(back, got)
	if !bytes.Equal(back, pt) {
		t.Fatalf("decryptSpec = %x, want %x", back, pt)
	}
}

func TestSboxAgainstKnownValues(t *testing.T) {
	// Spot values from the FIPS-197 S-box table.
	cases := map[byte]byte{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16, 0x9a: 0xb8}
	for in, want := range cases {
		if sbox[in] != want {
			t.Errorf("sbox[%#02x] = %#02x, want %#02x", in, sbox[in], want)
		}
		if invSbox[want] != in {
			t.Errorf("invSbox[%#02x] = %#02x, want %#02x", want, invSbox[want], in)
		}
	}
}

// TestAgainstStdlib checks the in-repo FIPS-197 reference itself against
// crypto/aes in both directions, so the differential tests below compare
// production against a reference that is known to be AES.
func TestAgainstStdlib(t *testing.T) {
	r := xrand.New(1)
	for i := 0; i < 200; i++ {
		key := make([]byte, 16)
		pt := make([]byte, 16)
		r.Bytes(key)
		r.Bytes(pt)
		ours := newSpecCipher(key)
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		want := make([]byte, 16)
		ours.encryptSpec(got, pt)
		ref.Encrypt(want, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x pt %x: got %x want %x", key, pt, got, want)
		}
		ours.decryptSpec(got, pt)
		ref.Decrypt(want, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x ct %x: decrypt got %x want %x", key, pt, got, want)
		}
	}
}

// TestEncryptMatchesSpec differentially verifies the production Cipher
// against the straight-line FIPS-197 round functions over random keys and
// blocks, with separate and with identical (in-place) dst and src.
func TestEncryptMatchesSpec(t *testing.T) {
	r := xrand.New(7)
	for i := 0; i < 500; i++ {
		key := make([]byte, 16)
		pt := make([]byte, 16)
		r.Bytes(key)
		r.Bytes(pt)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSpecCipher(key)
		fast := make([]byte, 16)
		spec := make([]byte, 16)
		c.Encrypt(fast, pt)
		ref.encryptSpec(spec, pt)
		if !bytes.Equal(fast, spec) {
			t.Fatalf("key %x pt %x: Encrypt %x spec %x", key, pt, fast, spec)
		}
		inplace := append([]byte(nil), pt...)
		c.Encrypt(inplace, inplace)
		if !bytes.Equal(inplace, spec) {
			t.Fatalf("key %x pt %x: in-place Encrypt %x, want %x", key, pt, inplace, spec)
		}
		ref.decryptSpec(spec, pt)
		c.Decrypt(inplace, pt)
		if !bytes.Equal(inplace, spec) {
			t.Fatalf("key %x ct %x: Decrypt %x, want %x", key, pt, inplace, spec)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(key, pt [16]byte) bool {
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 16)
		c.Encrypt(ct, pt[:])
		back := make([]byte, 16)
		c.Decrypt(back, ct)
		return bytes.Equal(back, pt[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 15, 17, 24, 32} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("NewCipher accepted %d-byte key", n)
		}
	}
}

func TestGFMulProperties(t *testing.T) {
	// mul is commutative and distributes over XOR; inverse is an inverse.
	f := func(a, b, c byte) bool {
		if mul(a, b) != mul(b, a) {
			return false
		}
		if mul(a, b^c) != mul(a, b)^mul(a, c) {
			return false
		}
		if a != 0 && mul(a, inverse(a)) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCTRPadsDistinct(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	ctr := NewCTR(c)
	var pads [6]Pad
	for i := range pads {
		pads[i] = ctr.Pad(IV{ID: 7, Counter: 100 + uint64(i)})
	}
	for i := 0; i < len(pads); i++ {
		for j := i + 1; j < len(pads); j++ {
			if pads[i] == pads[j] {
				t.Fatalf("pads %d and %d identical", i, j)
			}
		}
	}
	// Same IV regenerates the same pad (needed for decryption).
	again := ctr.Pad(IV{ID: 7, Counter: 100})
	if again != pads[0] {
		t.Error("pad regeneration mismatch")
	}
}

func TestCTRXorRoundTrip(t *testing.T) {
	c, _ := NewCipher([]byte("0123456789abcdef"))
	ctr := NewCTR(c)
	data := make([]byte, 64)
	xrand.New(3).Bytes(data)
	orig := append([]byte(nil), data...)
	iv := IV{ID: 1, Counter: 42}
	ctr.EncryptBlock64(data, iv)
	if bytes.Equal(data, orig) {
		t.Fatal("encryption left data unchanged")
	}
	ctr.EncryptBlock64(data, iv) // XOR is its own inverse
	if !bytes.Equal(data, orig) {
		t.Fatal("decrypt round trip failed")
	}
}

func TestPadXORShortBuffer(t *testing.T) {
	var p Pad
	for i := range p {
		p[i] = byte(i + 1)
	}
	buf := []byte{0, 0, 0}
	p.XOR(buf)
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("short XOR wrong: %v", buf)
	}
	defer func() {
		if recover() == nil {
			t.Error("XOR of over-long buffer did not panic")
		}
	}()
	p.XOR(make([]byte, 17))
}

func TestECBDeterministic(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	ctr := NewCTR(c)
	var blk [16]byte
	blk[0] = 0xab
	a := ctr.ECB(blk)
	b := ctr.ECB(blk)
	if a != b {
		t.Error("ECB must be deterministic (that is its security weakness)")
	}
}

func TestIVBytesLayout(t *testing.T) {
	iv := IV{ID: 0x0102030405060708, Counter: 0x1112131415161718}
	b := iv.Bytes()
	if b[0] != 0x01 || b[7] != 0x08 || b[8] != 0x11 || b[15] != 0x18 {
		t.Fatalf("IV layout wrong: %x", b)
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	src := make([]byte, 16)
	dst := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encrypt(dst, src)
	}
}

var padSink Pad

// TestCTRZeroAllocs guards the per-pad hot calls: routing blocks through
// the Cipher's scratch keeps the caller's stack buffers from escaping into
// the crypto/aes interface call.
func TestCTRZeroAllocs(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	ctr := NewCTR(c)
	var data [64]byte
	var n uint64
	if a := testing.AllocsPerRun(100, func() {
		n++
		padSink = ctr.Pad(IV{ID: 1, Counter: n})
	}); a != 0 {
		t.Errorf("CTR.Pad allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		n++
		ctr.EncryptBlock64(data[:], IV{ID: 1, Counter: n})
	}); a != 0 {
		t.Errorf("CTR.EncryptBlock64 allocates %.1f/op, want 0", a)
	}
}

// BenchmarkEncryptBlock64 times the data-block leg of Figure 3: four
// counter-mode pads XORed onto a 64-byte payload.
func BenchmarkEncryptBlock64(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	ctr := NewCTR(c)
	data := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.EncryptBlock64(data, IV{ID: 1, Counter: uint64(4 * i)})
	}
}
