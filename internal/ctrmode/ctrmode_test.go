package ctrmode

import (
	"bytes"
	"testing"

	"obfusmem/internal/aes"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

var testKey = [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

func TestIVChangesOnWriteback(t *testing.T) {
	e := New(testKey, nil)
	addr := uint64(0x1000)
	iv1 := e.IVFor(addr)
	e.EncryptWriteback(0, addr)
	iv2 := e.IVFor(addr)
	if iv1 == iv2 {
		t.Fatal("IV did not change after writeback (pad reuse!)")
	}
	// Different blocks in the same page have different IVs.
	if e.IVFor(addr) == e.IVFor(addr+64) {
		t.Fatal("adjacent blocks share an IV")
	}
}

func TestMinorOverflowReencryptsPage(t *testing.T) {
	e := New(testKey, nil)
	addr := uint64(0x2000)
	for i := 0; i < MinorLimit-1; i++ {
		e.EncryptWriteback(0, addr)
	}
	if e.Stats().PageReencrypts != 0 {
		t.Fatalf("premature re-encryption after %d writebacks", MinorLimit-1)
	}
	e.EncryptWriteback(0, addr)
	st := e.Stats()
	if st.PageReencrypts != 1 {
		t.Fatalf("PageReencrypts = %d, want 1", st.PageReencrypts)
	}
	if st.ReencryptedBlks != BlocksPerPage {
		t.Fatalf("ReencryptedBlks = %d, want %d", st.ReencryptedBlks, BlocksPerPage)
	}
	// Major counter bumped: IVs across the page all changed, no reuse.
	iv := e.IVFor(addr)
	if iv.Counter>>MinorBits != 1 {
		t.Fatalf("major counter = %d, want 1", iv.Counter>>MinorBits)
	}
}

func TestDecryptFillOverlapsPads(t *testing.T) {
	e := New(testKey, nil)
	addr := uint64(0x3000)
	// Warm the counter cache.
	e.DecryptFill(0, addr, 200*sim.Nanosecond)
	// Second fill: counter hit at 2.5ns, 4 pads done well before the 200ns
	// data arrival, so the fill completes at dataReady + XOR.
	done := e.DecryptFill(0, addr, 200*sim.Nanosecond)
	want := 200*sim.Nanosecond + XORLatency
	if done != want {
		t.Fatalf("overlapped fill done = %v, want %v", done, want)
	}
	if e.Stats().PadsHiddenByMiss == 0 {
		t.Fatal("pad generation not recorded as hidden")
	}
}

func TestDecryptFillExposedWhenDataFast(t *testing.T) {
	e := New(testKey, nil)
	addr := uint64(0x4000)
	// Data arrives immediately: pad latency is exposed.
	done := e.DecryptFill(0, addr, 0)
	if done <= XORLatency {
		t.Fatalf("fill with instant data done = %v, must include pad latency", done)
	}
	if e.Stats().PadsExposed == 0 {
		t.Fatal("exposed pads not counted")
	}
}

func TestCounterCacheMissFetchesFromMemory(t *testing.T) {
	var fetches, writes int
	fetch := func(at sim.Time, addr uint64, write bool) sim.Time {
		if write {
			writes++
		} else {
			fetches++
		}
		return at + 78750*sim.Picosecond
	}
	e := New(testKey, fetch)
	// Counter blocks for distinct pages are distinct cache lines.
	for p := 0; p < 10; p++ {
		e.DecryptFill(0, uint64(p)*PageBytes, 100*sim.Nanosecond)
	}
	if fetches != 10 {
		t.Fatalf("counter fetches = %d, want 10", fetches)
	}
	st := e.Stats()
	if st.CtrMisses != 10 || st.CtrHits != 0 {
		t.Fatalf("ctr hits/misses = %d/%d", st.CtrHits, st.CtrMisses)
	}
	// Re-touch: all hits, no new fetches.
	for p := 0; p < 10; p++ {
		e.DecryptFill(0, uint64(p)*PageBytes, 100*sim.Nanosecond)
	}
	if fetches != 10 {
		t.Fatalf("fetches after warm = %d, want 10", fetches)
	}
	if e.CtrHitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", e.CtrHitRate())
	}
}

func TestCounterCacheEvictionWritesBack(t *testing.T) {
	var ctrWrites int
	fetch := func(at sim.Time, addr uint64, write bool) sim.Time {
		if write {
			ctrWrites++
		}
		return at + sim.Nanosecond
	}
	e := New(testKey, fetch)
	// Touch more counter blocks than the 256KB counter cache holds
	// (4096 lines) to force dirty evictions.
	for p := 0; p < 6000; p++ {
		e.EncryptWriteback(0, uint64(p)*PageBytes)
	}
	if ctrWrites == 0 {
		t.Fatal("no counter-block writebacks despite cache overflow")
	}
	if e.Stats().CtrWritebacks == 0 {
		t.Fatal("CtrWritebacks counter is zero")
	}
}

func TestFunctionalEncryptDecrypt(t *testing.T) {
	e := New(testKey, nil)
	addr := uint64(0x5000)
	data := make([]byte, 64)
	xrand.New(7).Bytes(data)
	orig := append([]byte(nil), data...)

	e.EncryptData(data, addr)
	if bytes.Equal(data, orig) {
		t.Fatal("encryption changed nothing")
	}
	e.DecryptData(data, addr)
	if !bytes.Equal(data, orig) {
		t.Fatal("round trip failed")
	}

	// After a writeback the counter changes, so the old ciphertext no
	// longer decrypts to the plaintext (versioning).
	e.EncryptData(data, addr)
	ct1 := append([]byte(nil), data...)
	e.DecryptData(data, addr)
	e.EncryptWriteback(0, addr)
	e.EncryptData(data, addr)
	if bytes.Equal(ct1, data) {
		t.Fatal("ciphertext identical across counter versions (pad reuse)")
	}
	e.DecryptData(data, addr)
	if !bytes.Equal(data, orig) {
		t.Fatal("round trip failed after version bump")
	}
}

func TestCiphertextDiffersAcrossBlocks(t *testing.T) {
	e := New(testKey, nil)
	data1 := make([]byte, 64)
	data2 := make([]byte, 64)
	e.EncryptData(data1, 0x1000)
	e.EncryptData(data2, 0x1040)
	if bytes.Equal(data1, data2) {
		t.Fatal("same plaintext encrypts identically at different addresses")
	}
}

func TestPadAccounting(t *testing.T) {
	e := New(testKey, nil)
	before := e.PadsGenerated()
	e.DecryptFill(0, 0x1000, 100*sim.Nanosecond)
	if got := e.PadsGenerated() - before; got != 4 {
		t.Fatalf("fill generated %d pads, want 4", got)
	}
	if e.EnergyPJ() <= 0 {
		t.Fatal("no energy accounted")
	}
	_ = aes.PadEnergyPJ
}

func TestStatsCounts(t *testing.T) {
	e := New(testKey, nil)
	e.DecryptFill(0, 0x1000, 0)
	e.EncryptWriteback(0, 0x1000)
	st := e.Stats()
	if st.Fills != 1 || st.Writebacks != 1 {
		t.Fatalf("fills/writebacks = %d/%d", st.Fills, st.Writebacks)
	}
}

// TestPageCountersAllocatePerChunk writes K and then 2K distinct pages on
// fresh engines: the K extra pages may cost their K/64 counter chunks and
// the page map's growth, but not one allocation per page.
func TestPageCountersAllocatePerChunk(t *testing.T) {
	const k = 4096
	allocs := func(pages int) float64 {
		return testing.AllocsPerRun(3, func() {
			e := New(testKey, nil)
			for p := 0; p < pages; p++ {
				e.EncryptWriteback(0, uint64(p)*PageBytes)
			}
		})
	}
	extra := allocs(2*k) - allocs(k)
	t.Logf("%d extra pages: %.0f extra allocations", k, extra)
	if extra > 2*k/pageChunk {
		t.Errorf("%d extra pages cost %.0f allocations, want at most %d", k, extra, 2*k/pageChunk)
	}
}
