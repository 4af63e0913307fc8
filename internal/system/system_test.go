package system

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"obfusmem/internal/attack"
	"obfusmem/internal/cpu"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

func TestModesBuildAndServe(t *testing.T) {
	for _, name := range []string{"unprotected", "encrypt-only", "obfusmem-auth", "oram"} {
		s := New(DefaultConfig(name))
		done := s.Read(0, 0x10000)
		if done <= 0 {
			t.Fatalf("%v: read done = %v", name, done)
		}
		wdone := s.Write(done, 0x20000)
		if wdone < done {
			t.Fatalf("%v: write done = %v before issue", name, wdone)
		}
		s.Drain(wdone)
	}
}

func TestORAMSlowerThanObfusMem(t *testing.T) {
	or := New(DefaultConfig("oram"))
	ob := New(DefaultConfig("obfusmem-auth"))
	un := New(DefaultConfig("unprotected"))
	lo := or.Read(0, 0x1000)
	lb := ob.Read(0, 0x1000)
	lu := un.Read(0, 0x1000)
	if lo <= lb || lb < lu {
		t.Fatalf("latency ordering wrong: oram %v, obfus %v, unprot %v", lo, lb, lu)
	}
	if lo < 2500*sim.Nanosecond {
		t.Fatalf("ORAM read %v below the fixed 2500ns", lo)
	}
}

func TestFullHandshakeBuilds(t *testing.T) {
	cfg := DefaultConfig("obfusmem-auth")
	cfg.Channels = 2
	cfg.FullHandshake = true
	s := New(cfg)
	if s.BootApproach.String() != "trusted-integrator" {
		t.Fatalf("BootApproach = %v", s.BootApproach)
	}
	done := s.Read(0, 4096)
	if done <= 0 {
		t.Fatal("read failed after full handshake")
	}
	if s.Obfus().Stats().DecodeMismatches != 0 {
		t.Fatal("handshake keys decode incorrectly")
	}
}

func TestClosedLoopRunAllModes(t *testing.T) {
	p, _ := workload.ByName("leslie3d")
	const n = 3000
	base := cpu.Run(p, n, New(DefaultConfig("unprotected")), cpu.DefaultConfig(), 9)
	if base.ExecTime <= 0 || base.Reads == 0 {
		t.Fatalf("baseline run broken: %+v", base)
	}
	enc := cpu.Run(p, n, New(DefaultConfig("encrypt-only")), cpu.DefaultConfig(), 9)
	obf := cpu.Run(p, n, New(DefaultConfig("obfusmem-auth")), cpu.DefaultConfig(), 9)
	orm := cpu.Run(p, n, New(DefaultConfig("oram")), cpu.DefaultConfig(), 9)

	oEnc := cpu.Overhead(base, enc)
	oObf := cpu.Overhead(base, obf)
	oOrm := cpu.Overhead(base, orm)
	t.Logf("overheads: enc %.1f%%, obfus+auth %.1f%%, oram %.1f%%", oEnc, oObf, oOrm)
	if oEnc < 0 || oObf < oEnc-1 || oOrm < 100 {
		t.Fatalf("overhead ordering violated: enc %.2f obfus %.2f oram %.2f", oEnc, oObf, oOrm)
	}
	// ObfusMem must beat ORAM by a wide margin on a memory-bound workload.
	if sp := cpu.Speedup(obf, orm); sp < 2 {
		t.Fatalf("ObfusMem speedup over ORAM = %.2f, want >> 1", sp)
	}
}

func TestChannelsReduceLatencyPressure(t *testing.T) {
	p, _ := workload.ByName("bwaves")
	run := func(ch int) cpu.Result {
		cfg := DefaultConfig("unprotected")
		cfg.Channels = ch
		return cpu.Run(p, 3000, New(cfg), cpu.DefaultConfig(), 11)
	}
	one := run(1)
	eight := run(8)
	if eight.MeanReadNS > one.MeanReadNS {
		t.Fatalf("8 channels slower than 1: %.1f vs %.1f ns", eight.MeanReadNS, one.MeanReadNS)
	}
}

// TestNewCheckedChannels requires NewChecked to build every power-of-two
// channel count, to default a count of 0 or less to 1, and to reject any
// other count with an error rather than a panic in the address mapper.
func TestNewCheckedChannels(t *testing.T) {
	for _, tc := range []struct {
		channels, want int // want 0: rejected
	}{
		{1, 1}, {2, 2}, {4, 4}, {8, 8}, {0, 1}, {-2, 1},
		{3, 0}, {6, 0}, {12, 0},
	} {
		cfg := DefaultConfig("obfusmem-auth")
		cfg.Channels = tc.channels
		s, err := NewChecked(cfg)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("%d channels: built a machine, want an error", tc.channels)
		case tc.want != 0 && err != nil:
			t.Errorf("%d channels: %v", tc.channels, err)
		case tc.want != 0 && s.Config().Channels != tc.want:
			t.Errorf("%d channels: machine has %d, want %d", tc.channels, s.Config().Channels, tc.want)
		}
	}
}

// TestNewCheckedRejectsUndefinedPolicy requires NewChecked to reject a
// cover policy outside None/UNOPT/OPT, which obfus.CoverNeeded would
// otherwise run as UNOPT, and every other undefined design knob: a dummy
// design the controller would run as RandomAddress, a pair order it would
// run as read-then-write, and a MAC mode it would panic on mid-run.
func TestNewCheckedRejectsUndefinedPolicy(t *testing.T) {
	for _, set := range []func(*obfus.Config){
		func(c *obfus.Config) { c.Policy = obfus.PolicyNone - 1 },
		func(c *obfus.Config) { c.Policy = obfus.PolicyOPT + 1 },
		func(c *obfus.Config) { c.Dummy = obfus.FixedAddress - 1 },
		func(c *obfus.Config) { c.Dummy = obfus.RandomAddress + 1 },
		func(c *obfus.Config) { c.Dummy = 5 },
		func(c *obfus.Config) { c.MAC = obfus.MACNone - 1 },
		func(c *obfus.Config) { c.MAC = obfus.EncryptThenMAC + 1 },
		func(c *obfus.Config) { c.MAC = 5 },
		func(c *obfus.Config) { c.Order = obfus.ReadThenWrite - 1 },
		func(c *obfus.Config) { c.Order = obfus.WriteThenRead + 1 },
		func(c *obfus.Config) { c.Order = 3 },
	} {
		cfg := DefaultConfig("obfusmem-auth")
		cfg.Channels = 2
		set(&cfg.Obfus)
		if _, err := NewChecked(cfg); err == nil {
			t.Errorf("%+v: built a machine, want an error", cfg.Obfus)
		} else if !strings.Contains(err.Error(), "undefined") {
			t.Errorf("%+v: error %q does not name the undefined knob", cfg.Obfus, err)
		}
	}
}

func TestObfusMemVariantsBuild(t *testing.T) {
	for _, oc := range []obfus.Config{
		obfus.Default(),
		obfus.DefaultAuth(),
		{Dummy: obfus.OriginalAddress, Policy: obfus.PolicyUNOPT, MAC: obfus.EncryptThenMAC},
		{Dummy: obfus.RandomAddress, Policy: obfus.PolicyOPT},
	} {
		cfg := DefaultConfig("obfusmem-auth")
		cfg.Channels = 2
		cfg.Obfus = oc
		s := New(cfg)
		if done := s.Read(0, 1024); done <= 0 {
			t.Fatalf("variant %+v read failed", oc)
		}
	}
}

func TestTable1Reproduction(t *testing.T) {
	// The unprotected machine must reproduce the published Table 1
	// characteristics (gap within ~20%, MPKI-derived read rate by
	// construction). This is the calibration check for experiment T1.
	for _, name := range []string{"bwaves", "mcf", "xalan", "hmmer"} {
		p, _ := workload.ByName(name)
		res := cpu.Run(p, 4000, New(DefaultConfig("unprotected")), cpu.DefaultConfig(), 5)
		rel := res.MeanGapNS / p.GapNS
		if rel < 0.6 || rel > 1.4 {
			t.Errorf("%s: measured gap %.1f ns vs Table 1 %.1f ns (x%.2f)",
				name, res.MeanGapNS, p.GapNS, rel)
		}
	}
}

func TestValueRoundTripAllModes(t *testing.T) {
	for _, name := range []string{"unprotected", "encrypt-only", "obfusmem-auth", "oram"} {
		s := New(DefaultConfig(name))
		at := sim.Time(0)
		var want [16]Block
		for i := range want {
			for j := range want[i] {
				want[i][j] = byte(i*31 + j)
			}
			at = s.WriteData(at, uint64(i)*64, want[i])
		}
		for i := range want {
			got, done, verified := s.ReadData(at, uint64(i)*64)
			if !verified {
				t.Fatalf("%v: block %d failed verification without an attacker", name, i)
			}
			if got != want[i] {
				t.Fatalf("%v: block %d round trip failed", name, i)
			}
			at = done
		}
	}
}

func TestValueOverwriteVersioning(t *testing.T) {
	// Counter-mode versioning: overwriting a block and reading it back
	// must return the new value (the IV changed under it).
	s := New(DefaultConfig("obfusmem-auth"))
	var a, b Block
	a[0], b[0] = 1, 2
	at := s.WriteData(0, 4096, a)
	at = s.WriteData(at, 4096, b)
	got, _, verified := s.ReadData(at, 4096)
	if !verified || got != b {
		t.Fatalf("got %v verified=%v, want overwrite visible", got[0], verified)
	}
}

func TestObservation4EndToEnd(t *testing.T) {
	// In-flight data corruption: the bus MAC does not cover payloads
	// (encrypt-and-MAC over type|addr|counter), so the write is accepted —
	// but the Merkle tree catches the corruption when the block is read.
	s := New(DefaultConfig("obfusmem-auth"))
	tmp := attack.NewTamperer(attack.TamperData, 1, xrand.New(3))
	s.Bus().SetTamperer(tmp)
	var blk Block
	blk[7] = 0xAB
	at := s.WriteData(0, 8192, blk)
	if s.Obfus().Stats().TamperDetected != 0 {
		t.Fatal("bus MAC flagged a data-only corruption (it must not, by design)")
	}
	s.Bus().SetTamperer(nil)
	got, _, verified := s.ReadData(at, 8192)
	if verified {
		t.Fatal("Merkle verification passed on corrupted data")
	}
	if got == blk {
		t.Fatal("tamperer failed to corrupt anything")
	}
	if tmp.Attacked == 0 {
		t.Fatal("no attack mounted")
	}
}

func TestValueDataInMemoryIsCiphertext(t *testing.T) {
	// The functional store must hold ciphertext, not plaintext, in the
	// protected modes (memory readout attack resistance).
	s := New(DefaultConfig("obfusmem-auth"))
	var blk Block
	copy(blk[:], "extremely secret value 12345678")
	s.WriteData(0, 0x4000, blk)
	stored := s.Memory().LoadBlock(0x4000)
	if stored == blk {
		t.Fatal("plaintext visible in memory store under ObfusMem")
	}
	un := New(DefaultConfig("unprotected"))
	un.WriteData(0, 0x4000, blk)
	if un.Memory().LoadBlock(0x4000) != blk {
		t.Fatal("unprotected store should hold plaintext")
	}
}

// TestZeroLoadOracle checks the single-channel unprotected and
// encrypt-only machines against closed-form zero-load latencies. Every term
// is a literal from Table 2 or DESIGN.md §5, never read from the model, so
// a drifted constant fails here even when every golden is regenerated:
//
//	command packet   16 B at 12.8 GB/s = 1.25 ns
//	data packet      64 B at 12.8 GB/s = 5 ns
//	write packet     80 B at 12.8 GB/s = 6.25 ns
//	wire propagation 1 ns per packet
//	row miss         tRCD 60 + tCL 13.75 + tBURST 5 = 78.75 ns
//	row hit          tCL 13.75 + tBURST 5 = 18.75 ns
//
// A read is command + propagation + array + data + propagation; a write is
// write packet + propagation + array (the controller posts it).
//
// Encrypt-only adds the at-rest engine of DESIGN §5 "At-rest encryption
// timing":
//
//	counter-cache hit 5 core cycles = 2.5 ns
//	four pads         3 issue intervals of 0.5 ns + 24 stages of 0.5 ns = 13.5 ns
//	XOR               1 core cycle = 0.5 ns
//
// A read pre-generates its pads while the data is fetched and adds the XOR
// after the later of the two. A write encrypts before it leaves: counter,
// pads and XOR precede the write packet. A counter-cache miss replaces the
// 2.5 ns hit with a read of the page's counter block through the same
// backend, issued at the same instant. The counter block of the page at
// 0x40000 (rank 0, bank 0, row 16) lives at 4096 (rank 0, bank 4, row 0),
// so its array access never meets the data's, but after a demand read its
// command and its reply each queue behind the data's on the link.
//
// ObfusMem adds the terms of DESIGN §5 "ObfusMem read timing":
//
//	front end        6 ns per pair
//	pad XOR          0.5 ns at each of the four transit-crypto steps; the
//	                 pad pipelines are idle, so no pad backlog
//	SerDes           4 ns per chip crossing, after each decode XOR
//	exposed MAC      8 ns from the front end's release (auth only), in
//	                 place of the request XOR
//	MAC field        8 B on the command (24 B, 1.875 ns) and on the reply
//	                 (72 B, 5.625 ns), auth only
//
// The read half leads its pair on the link, so the dummy write half that
// follows it never delays it, and the at-rest XOR follows the reply.
func TestZeroLoadOracle(t *testing.T) {
	const ns = sim.Nanosecond
	const ps = sim.Picosecond
	read := func(addr uint64) func(s *System, at sim.Time) sim.Time {
		return func(s *System, at sim.Time) sim.Time { return s.Read(at, addr) }
	}
	write := func(addr uint64) func(s *System, at sim.Time) sim.Time {
		return func(s *System, at sim.Time) sim.Time { return s.Write(at, addr) }
	}
	// warm reads addr well before the timed operation: it opens addr's
	// row (inside the 500 ns idle close) and caches the counter block of
	// addr's page, and its traffic is over before the timed one starts.
	warm := func(addr uint64, op func(s *System, at sim.Time) sim.Time) func(s *System, at sim.Time) sim.Time {
		return func(s *System, at sim.Time) sim.Time {
			s.Read(at-200*ns, addr)
			return op(s, at)
		}
	}
	for _, tc := range []struct {
		backend, name string
		want          sim.Time
		op            func(s *System, at sim.Time) sim.Time
	}{
		{"unprotected", "row-miss read", (1250 + 1000 + 78750 + 5000 + 1000) * ps, read(0x40000)},
		// Another block of the open row.
		{"unprotected", "row-hit read", (1250 + 1000 + 18750 + 5000 + 1000) * ps, warm(0x40000, read(0x40040))},
		{"unprotected", "row-miss write", (6250 + 1000 + 78750) * ps, write(0x40000)},

		// Counter miss: the counter reply arrives at 1.25 (queued behind
		// the data command) + 1.25 + 1 + 78.75 = 82.25, waits for the data
		// reply to leave the link at 86, then takes 5 + 1: 92 ns. Pads
		// from 92 outlast the data at 87.
		{"encrypt-only", "row-miss read, counter miss",
			(1250 + 1250 + 1000 + 78750 + 3750 + 5000 + 1000 + 13500 + 500) * ps, read(0x40000)},
		// Counter hit: pads done at 2.5 + 13.5 = 16, hidden by the 87 ns
		// data fetch. 0x40400 shares the page but sits in bank 1.
		{"encrypt-only", "row-miss read, counter hit",
			(1250 + 1000 + 78750 + 5000 + 1000 + 500) * ps, warm(0x40400, read(0x40000))},
		{"encrypt-only", "row-hit read, counter hit",
			(1250 + 1000 + 18750 + 5000 + 1000 + 500) * ps, warm(0x40000, read(0x40040))},
		// Counter miss: a whole zero-load row-miss read (87 ns) of the
		// counter block, then pads and XOR, then the write.
		{"encrypt-only", "row-miss write, counter miss",
			(1250 + 1000 + 78750 + 5000 + 1000 + 13500 + 500 + 6250 + 1000 + 78750) * ps, write(0x40000)},
		{"encrypt-only", "row-miss write, counter hit",
			(2500 + 13500 + 500 + 6250 + 1000 + 78750) * ps, warm(0x40400, write(0x40000))},

		// ObfusMem: front end, request XOR, command, decode XOR + SerDes,
		// array, reply XOR, data, decode XOR + SerDes, at-rest XOR.
		{"obfusmem", "row-miss read, counter hit",
			(6000 + 500 + 1250 + 1000 + 500 + 4000 + 78750 + 500 + 5000 + 1000 + 500 + 4000 + 500) * ps,
			warm(0x40400, read(0x40000))},
		{"obfusmem", "row-hit read, counter hit",
			(6000 + 500 + 1250 + 1000 + 500 + 4000 + 18750 + 500 + 5000 + 1000 + 500 + 4000 + 500) * ps,
			warm(0x40000, read(0x40040))},
		// Auth: the exposed 8 ns MAC replaces the request XOR, and each
		// packet carries an 8 B MAC (24 B command, 72 B reply).
		{"obfusmem-auth", "row-miss read, counter hit",
			(6000 + 8000 + 1875 + 1000 + 500 + 4000 + 78750 + 500 + 5625 + 1000 + 500 + 4000 + 500) * ps,
			warm(0x40400, read(0x40000))},
		{"obfusmem-auth", "row-hit read, counter hit",
			(6000 + 8000 + 1875 + 1000 + 500 + 4000 + 18750 + 500 + 5625 + 1000 + 500 + 4000 + 500) * ps,
			warm(0x40000, read(0x40040))},
	} {
		s := New(DefaultConfig(tc.backend))
		at := sim.Time(1000 * ns)
		if got := tc.op(s, at) - at; got != tc.want {
			t.Errorf("%s %s: latency %v, want %v", tc.backend, tc.name, got, tc.want)
		}
	}
}

// TestPCMAccountingIdentities runs 2000 milc requests on every registered
// backend at 1 and 2 channels (cpu.Run drains the machine at the end) and
// checks the PCM counters against each other. The energy sum is written
// from DESIGN's Table 2 constants, never read from the model:
//
//	array read         1024 pJ per block, 16 blocks per 1 KB row
//	array write        6.8 x the array read
//	row-buffer access  16 pJ
//
// Every access is a row hit or a row miss, every miss activates its row
// (one array read), every access moves one block, and energy is whole-row
// array reads and dirty-row write-backs plus one row-buffer access each.
// The oram backend's fixed-latency model never reaches PCM, so its
// counters are zero and the identities hold trivially.
func TestPCMAccountingIdentities(t *testing.T) {
	const (
		blocksPerRow = 1024 / 64
		readPJ       = 1024.0
		writePJ      = 6.8 * readPJ
		rowBufferPJ  = 16.0
		relTolerance = 1e-12
	)
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range BackendNames() {
		for _, ch := range []int{1, 2} {
			cfg := DefaultConfig(name)
			cfg.Channels = ch
			s := New(cfg)
			cpu.Run(p, 2000, s, cpu.DefaultConfig(), 5)
			st := s.Memory().TotalPCMStats()
			if st.Accesses == 0 && name != "oram" {
				t.Errorf("%s/%dch: no PCM accesses; the identities are vacuous", name, ch)
			}
			if st.RowHits+st.RowMisses != st.Accesses {
				t.Errorf("%s/%dch: row hits %d + misses %d != accesses %d", name, ch, st.RowHits, st.RowMisses, st.Accesses)
			}
			if st.ArrayReads != st.RowMisses {
				t.Errorf("%s/%dch: array reads %d != row misses %d", name, ch, st.ArrayReads, st.RowMisses)
			}
			if st.BlockReads+st.BlockWrites != st.Accesses {
				t.Errorf("%s/%dch: block reads %d + writes %d != accesses %d", name, ch, st.BlockReads, st.BlockWrites, st.Accesses)
			}
			want := (float64(st.ArrayReads)*readPJ+float64(st.ArrayWrites)*writePJ)*blocksPerRow +
				float64(st.Accesses)*rowBufferPJ
			if math.Abs(st.EnergyPJ-want) > relTolerance*want {
				t.Errorf("%s/%dch: energy %v pJ, want %v (array reads %d, writes %d, accesses %d)",
					name, ch, st.EnergyPJ, want, st.ArrayReads, st.ArrayWrites, st.Accesses)
			}
		}
	}
}

// TestLinkBusyLaw checks the operational law that a link is busy for
// exactly the time its bytes take at the Table 2 bandwidth: on every
// channel, request plus reply busy time equals bytes x 78.125 ps (1000 ps /
// 12.8 GB/s). Every packet size is a multiple of 8 bytes, which take
// exactly 625 ps, so no transfer rounds and the law holds with no
// tolerance. It runs 2000 milc requests on every registered backend at 1
// and 2 channels through cpu.Run; the oram backend's fixed-latency model
// moves no bus bytes, so the law holds trivially there.
func TestLinkBusyLaw(t *testing.T) {
	const psPer8Bytes = 625
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range BackendNames() {
		for _, ch := range []int{1, 2} {
			cfg := DefaultConfig(name)
			cfg.Channels = ch
			s := New(cfg)
			cpu.Run(p, 2000, s, cpu.DefaultConfig(), 5)
			for c, st := range s.Bus().Stats() {
				if st.Bytes == 0 && name != "oram" {
					t.Errorf("%s/%dch: channel %d moved no bytes; the law is vacuous", name, ch, c)
				}
				if busy := st.ReqBusy + st.RespBusy; uint64(busy)*8 != st.Bytes*psPer8Bytes {
					t.Errorf("%s/%dch: channel %d busy %d ps for %d bytes, want %d ps",
						name, ch, c, busy, st.Bytes, st.Bytes*psPer8Bytes/8)
				}
			}
		}
	}
}

// TestObfusCryptoAccounting checks the ObfusMem crypto counters against each
// other on fault-free runs. Every bus access is a (read, write) pair; let P
// be the pairs and R the pairs whose read half is real, the replies that
// carry data the processor decrypts. Then:
//
//	read halves = write halves      RealReads + DummyReads = RealWrites + DummyWrites = P
//	processor pads = 6P + 4R        4 command pads and 2 write-data pads per pair sent,
//	                                4 pads to decrypt a real reply
//	memory pads = 2P + 4R           2 command pads per pair decoded, 4 reply pads
//	MACs = 3P with a MAC, else 0    one per request leg and one per reply
//	energy = 60.4 pJ x pads + 12.5 pJ x (2 MACs - dummy replies), or
//	         60.4 pJ x pads without a MAC
//
// The energy term counts MD5 digests, not MACs: each MAC is digested once to
// send it and once to verify it, except a dummy reply's, which the processor
// drops unverified. The constants are DESIGN's (15.1 mW x 4 ns per AES pad,
// 12.5 pJ per MD5 digest).
func TestObfusCryptoAccounting(t *testing.T) {
	const (
		padPJ        = 60.4
		digestPJ     = 12.5
		relTolerance = 1e-12
	)
	for _, name := range []string{"obfusmem", "obfusmem-auth"} {
		for _, bench := range []string{"milc", "lbm", "mcf"} {
			p, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range []int{1, 2, 4} {
				cfg := DefaultConfig(name)
				cfg.Channels = ch
				s := New(cfg)
				cpu.Run(p, 2000, s, cpu.DefaultConfig(), 5)
				ctl := s.Obfus()
				st := ctl.Stats()
				id := fmt.Sprintf("%s/%s/%dch", name, bench, ch)
				pairs := st.RealReads + st.DummyReads
				replies := pairs - st.DummyReads
				if pairs == 0 || replies == 0 {
					t.Fatalf("%s: %d pairs, %d real replies; the identities are vacuous", id, pairs, replies)
				}
				if w := st.RealWrites + st.DummyWrites; w != pairs {
					t.Errorf("%s: %d write halves, %d read halves", id, w, pairs)
				}
				if got, want := ctl.PadsProc(), 6*pairs+4*replies; got != want {
					t.Errorf("%s: %d processor pads, want 6x%d + 4x%d = %d", id, got, pairs, replies, want)
				}
				if got, want := ctl.PadsMem(), 2*pairs+4*replies; got != want {
					t.Errorf("%s: %d memory pads, want 2x%d + 4x%d = %d", id, got, pairs, replies, want)
				}
				wantMACs := uint64(0)
				if cfg.Obfus.MAC != obfus.MACNone {
					wantMACs = 3 * pairs
				}
				if st.MACsComputed != wantMACs {
					t.Errorf("%s: %d MACs computed, want %d", id, st.MACsComputed, wantMACs)
				}
				pads := float64(ctl.PadsProc() + ctl.PadsMem())
				digests := 0.0 // no MAC, no MD5 unit issues
				if wantMACs > 0 {
					digests = float64(2*st.MACsComputed - st.DummyReads)
				}
				want := padPJ*pads + digestPJ*digests
				if got := ctl.CryptoEnergyPJ(); math.Abs(got-want) > relTolerance*want {
					t.Errorf("%s: crypto energy %v pJ, want %v (%v pads, %v digests)", id, got, want, pads, digests)
				}
			}
		}
	}
}
