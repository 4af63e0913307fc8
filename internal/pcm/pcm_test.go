package pcm

import (
	"testing"
	"testing/quick"

	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

func newDev() *Device {
	cfg := DefaultConfig()
	cfg.AdaptiveIdleClose = 0 // disable for deterministic timing tests
	return New(cfg)
}

func TestRowMissThenHitTiming(t *testing.T) {
	d := newDev()
	// Cold access: activate (60ns) + CAS (13.75) + burst (5) = 78.75ns.
	done := d.Access(0, 0, 0, 10, false)
	want := ArrayReadLatency + CASLatency + BurstTime
	if done != want {
		t.Fatalf("cold access done = %v, want %v", done, want)
	}
	// Row hit: CAS + burst only.
	done2 := d.Access(done, 0, 0, 10, false)
	if done2 != done+CASLatency+BurstTime {
		t.Fatalf("hit done = %v, want %v", done2, done+CASLatency+BurstTime)
	}
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.RowHits, st.RowMisses)
	}
}

func TestDirtyEvictionCostsArrayWrite(t *testing.T) {
	d := newDev()
	done := d.Access(0, 0, 0, 1, true) // dirty row 1
	// Conflict with a dirty row: 150 (write back) + 60 + 13.75 + 5.
	done2 := d.Access(done, 0, 0, 2, false)
	want := done + ArrayWriteLatency + ArrayReadLatency + CASLatency + BurstTime
	if done2 != want {
		t.Fatalf("dirty conflict done = %v, want %v", done2, want)
	}
	if d.Stats().ArrayWrites != 1 {
		t.Fatalf("ArrayWrites = %d, want 1", d.Stats().ArrayWrites)
	}
	if d.MaxWear() != 1 {
		t.Fatalf("MaxWear = %d, want 1", d.MaxWear())
	}
}

func TestCleanEvictionIsFree(t *testing.T) {
	d := newDev()
	done := d.Access(0, 0, 0, 1, false) // clean row 1
	done2 := d.Access(done, 0, 0, 2, false)
	want := done + ArrayReadLatency + CASLatency + BurstTime
	if done2 != want {
		t.Fatalf("clean conflict done = %v, want %v (no 150ns penalty)", done2, want)
	}
	if d.Stats().ArrayWrites != 0 {
		t.Fatal("clean eviction should not write the array")
	}
}

func TestWritesOnlyOnEviction(t *testing.T) {
	d := newDev()
	at := sim.Time(0)
	// Many writes to the same row: zero array writes until eviction.
	for i := 0; i < 100; i++ {
		at = d.Access(at, 0, 0, 5, true)
	}
	if d.Stats().ArrayWrites != 0 {
		t.Fatalf("ArrayWrites = %d before eviction, want 0", d.Stats().ArrayWrites)
	}
	d.Access(at, 0, 0, 6, false)
	if d.Stats().ArrayWrites != 1 {
		t.Fatalf("ArrayWrites = %d after eviction, want 1", d.Stats().ArrayWrites)
	}
}

func TestBanksIndependent(t *testing.T) {
	d := newDev()
	d1 := d.Access(0, 0, 0, 1, false)
	d2 := d.Access(0, 0, 1, 1, false)
	d3 := d.Access(0, 1, 0, 1, false)
	if d1 != d2 || d1 != d3 {
		t.Fatalf("independent banks should finish together: %v %v %v", d1, d2, d3)
	}
	// Same bank serializes.
	d4 := d.Access(0, 0, 0, 1, false)
	if d4 <= d1 {
		t.Fatalf("same-bank access should queue: %v vs %v", d4, d1)
	}
}

func TestAdaptiveCloseHidesEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveIdleClose = 100 * sim.Nanosecond
	d := New(cfg)
	done := d.Access(0, 0, 0, 1, true) // dirty
	// Long idle gap: the device closes the row in the background.
	at := done + 1000*sim.Nanosecond
	done2 := d.Access(at, 0, 0, 2, false)
	// No 150ns eviction on the critical path.
	want := at + ArrayReadLatency + CASLatency + BurstTime
	if done2 != want {
		t.Fatalf("adaptive-closed access done = %v, want %v", done2, want)
	}
	// But the array write still happened (energy + wear accounted).
	if d.Stats().ArrayWrites != 1 {
		t.Fatalf("ArrayWrites = %d, want 1", d.Stats().ArrayWrites)
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := newDev()
	d.Access(0, 0, 0, 1, false) // activation: 16-block row read
	st := d.Stats()
	wantE := BlockReadEnergyPJ*16 + RowBufferEnergyPJ
	if st.EnergyPJ < wantE-0.01 || st.EnergyPJ > wantE+0.01 {
		t.Fatalf("EnergyPJ = %v, want %v", st.EnergyPJ, wantE)
	}
	// Dirty row eviction adds 6.8x read energy per block.
	d.Access(100*sim.Microsecond, 0, 0, 1, true)
	d.Access(200*sim.Microsecond, 0, 0, 2, false)
	st = d.Stats()
	wantE += RowBufferEnergyPJ + // hit write
		BlockWriteEnergyPJ*16 + BlockReadEnergyPJ*16 + RowBufferEnergyPJ // evict + activate
	if st.EnergyPJ < wantE-0.01 || st.EnergyPJ > wantE+0.01 {
		t.Fatalf("EnergyPJ = %v, want %v", st.EnergyPJ, wantE)
	}
}

func TestFlushRows(t *testing.T) {
	d := newDev()
	d.Access(0, 0, 0, 1, true)
	d.Access(0, 0, 1, 2, true)
	d.Access(0, 1, 0, 3, false)
	d.FlushRows()
	if d.Stats().ArrayWrites != 2 {
		t.Fatalf("ArrayWrites after flush = %d, want 2 (two dirty rows)", d.Stats().ArrayWrites)
	}
	if d.WornRows() != 2 {
		t.Fatalf("WornRows = %d, want 2", d.WornRows())
	}
}

func TestLifetimeEstimate(t *testing.T) {
	d := newDev()
	// 10 array writes to one row over 1 ms.
	at := sim.Time(0)
	for i := 0; i < 10; i++ {
		at = d.Access(at, 0, 0, 1, true)
		at = d.Access(at, 0, 0, 2, false) // evict dirty row 1
	}
	years := d.LifetimeYears(sim.Millisecond)
	// 10 writes/ms = 1e4/s -> 1e8/1e4 = 1e4 s ~ 2.8h; sanity: positive, finite-ish.
	if years <= 0 || years > 1 {
		t.Fatalf("LifetimeYears = %v, want small positive", years)
	}
	if d.LifetimeYears(0) < 1e11 {
		t.Error("zero elapsed should return sentinel lifetime")
	}
}

func TestRowHitRate(t *testing.T) {
	d := newDev()
	if d.RowHitRate() != 0 {
		t.Fatal("empty device hit rate should be 0")
	}
	at := d.Access(0, 0, 0, 1, false)
	for i := 0; i < 9; i++ {
		at = d.Access(at, 0, 0, 1, false)
	}
	if r := d.RowHitRate(); r < 0.89 || r > 0.91 {
		t.Fatalf("hit rate = %v, want 0.9", r)
	}
}

// Property: time never goes backwards per bank, and accounting identities
// hold (accesses = hits + misses, blockReads+blockWrites = accesses).
func TestAccountingInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		d := newDev()
		at := sim.Time(0)
		lastDone := make(map[int]sim.Time)
		for i := 0; i < 500; i++ {
			rank := r.Intn(2)
			bankIdx := r.Intn(8)
			row := int64(r.Intn(20))
			write := r.Bool()
			at += sim.Time(r.Intn(100)) * sim.Nanosecond
			done := d.Access(at, rank, bankIdx, row, write)
			key := rank*8 + bankIdx
			if done <= lastDone[key] {
				return false
			}
			lastDone[key] = done
		}
		st := d.Stats()
		return st.Accesses == st.RowHits+st.RowMisses &&
			st.BlockReads+st.BlockWrites == st.Accesses &&
			st.ArrayReads == st.RowMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDirtyClearsOnActivation(t *testing.T) {
	// Regression: a row activated after a dirty eviction starts clean;
	// read-only occupancy must not keep wearing the array.
	d := newDev()
	at := d.Access(0, 0, 0, 1, true)  // dirty row 1
	at = d.Access(at, 0, 0, 2, false) // evict row 1 (1 array write), open row 2 clean
	at = d.Access(at, 0, 0, 3, false) // evict row 2: clean, no wear
	at = d.Access(at, 0, 0, 4, false)
	_ = at
	if got := d.Stats().ArrayWrites; got != 1 {
		t.Fatalf("ArrayWrites = %d, want 1 (dirty flag must clear on activation)", got)
	}
	if d.MaxWear() != 1 {
		t.Fatalf("MaxWear = %d, want 1", d.MaxWear())
	}
}

// TestRowOutsidePackedKeyPanics checks Access's row bound: the wear table
// packs (bank, row) into a uint32, so rows run from 0 to 2^27-1. The two
// widest rows of every bank must wear as distinct rows.
func TestRowOutsidePackedKeyPanics(t *testing.T) {
	d := newDev()
	const top = 1<<rowBits - 1
	at := sim.Time(0)
	for rank := 0; rank < Ranks; rank++ {
		for bank := 0; bank < BanksPerRank; bank++ {
			for _, row := range []int64{top, top - 1, 0} {
				at = d.Access(at, rank, bank, row, true)
			}
		}
	}
	d.FlushRows()
	if got, want := d.WornRows(), 3*Ranks*BanksPerRank; got != want {
		t.Fatalf("WornRows = %d, want %d", got, want)
	}
	for _, row := range []int64{-1, top + 1, 1 << 32, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(row %d) did not panic", row)
				}
			}()
			d.Access(at, 0, 0, row, false)
		}()
	}
}
