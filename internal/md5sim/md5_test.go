package md5sim

import (
	stdmd5 "crypto/md5"
	"encoding/hex"
	"testing"
	"testing/quick"

	"obfusmem/internal/xrand"
)

// RFC 1321 Appendix A.5 test suite.
func TestRFC1321Vectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "d41d8cd98f00b204e9800998ecf8427e"},
		{"a", "0cc175b9c0f1b6a831c399e269772661"},
		{"abc", "900150983cd24fb0d6963f7d28e17f72"},
		{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
		{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
			"d174ab98d277d9f5a5611c2c9f419d9f"},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
			"57edf4a22be3c955ac49da2e2107b67a"},
	}
	for _, c := range cases {
		got := Digest([]byte(c.in))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("Digest(%q) = %x, want %s", c.in, got, c.want)
		}
		ref := referenceDigest([]byte(c.in))
		if hex.EncodeToString(ref[:]) != c.want {
			t.Errorf("referenceDigest(%q) = %x, want %s", c.in, ref, c.want)
		}
	}
}

// TestAgainstStdlib checks production Digest, the RFC 1321 reference, and
// crypto/md5 agree on random messages spanning one to five blocks.
func TestAgainstStdlib(t *testing.T) {
	r := xrand.New(2)
	for i := 0; i < 100; i++ {
		n := r.Intn(300)
		msg := make([]byte, n)
		r.Bytes(msg)
		got := Digest(msg)
		ref := referenceDigest(msg)
		want := stdmd5.Sum(msg)
		if got != want || ref != want {
			t.Fatalf("len %d: Digest %x reference %x crypto/md5 %x", n, got, ref, want)
		}
	}
}

// TestPaddingBoundaries checks production Digest against the RFC 1321
// reference at every message length up to 200 bytes, which covers each
// padding case: tail plus length in one block, spilling into a second
// block, and exact block multiples.
func TestPaddingBoundaries(t *testing.T) {
	for n := 0; n <= 200; n++ {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(0x42 + 7*i)
		}
		got := Digest(msg)
		want := referenceDigest(msg)
		if got != want {
			t.Errorf("len %d: Digest %x, reference %x", n, got, want)
		}
	}
}

// TestDigestPropertyMatchesStdlib property-tests the RFC 1321 reference
// against crypto/md5 on arbitrary messages.
func TestDigestPropertyMatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		return referenceDigest(msg) == stdmd5.Sum(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComputeMAC(t *testing.T) {
	m1 := Compute(1, 0x1000, 42)
	m2 := Compute(1, 0x1000, 42)
	if m1 != m2 {
		t.Fatal("MAC not deterministic")
	}
	// Each component change flips the MAC (the tampering scenarios of §3.5).
	if Compute(2, 0x1000, 42) == m1 {
		t.Error("type change did not change MAC")
	}
	if Compute(1, 0x1040, 42) == m1 {
		t.Error("address change did not change MAC")
	}
	if Compute(1, 0x1000, 43) == m1 {
		t.Error("counter change did not change MAC (replay would succeed)")
	}
}

func TestComputeOverMessage(t *testing.T) {
	a := ComputeOverMessage([]byte("hello"))
	b := ComputeOverMessage([]byte("hellp"))
	if a == b {
		t.Error("distinct messages produced identical MACs")
	}
	if a != ComputeOverMessage([]byte("hello")) {
		t.Error("MAC not deterministic")
	}
}

// TestComputeZeroAllocs guards the per-packet MAC hot call.
func TestComputeZeroAllocs(t *testing.T) {
	var n uint64
	if a := testing.AllocsPerRun(100, func() {
		n++
		macSink = Compute(1, 0x1000, n)
	}); a != 0 {
		t.Errorf("Compute allocates %.1f/op, want 0", a)
	}
}

func BenchmarkDigest17(b *testing.B) {
	msg := make([]byte, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Digest(msg)
	}
}

var macSink MAC

// BenchmarkCompute times the encrypt-and-MAC tag the obfus datapath
// computes for every authenticated packet.
func BenchmarkCompute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		macSink = Compute(1, 0x1000, uint64(i))
	}
}
