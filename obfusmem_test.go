package obfusmem

import (
	"errors"
	"testing"

	"obfusmem/internal/system"
)

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(MachineConfig{Channels: 3}); err == nil {
		t.Error("3 channels accepted")
	}
	if _, err := NewMachine(MachineConfig{Protection: "no-such-scheme"}); err == nil {
		t.Error("unknown protection accepted")
	}
	m, err := NewMachine(MachineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil machine")
	}
}

// TestProtectionStrings keeps the facade's constants and the backend
// registry from drifting apart: every constant is a registered name, and
// every registered name has a constant.
func TestProtectionStrings(t *testing.T) {
	all := []Protection{ProtectionNone, ProtectionEncrypt, ProtectionObfusMem,
		ProtectionObfusMemAuth, ProtectionORAM, ProtectionPalermo}
	have := make(map[string]bool)
	for _, p := range all {
		have[string(p)] = true
	}
	registered := system.BackendNames()
	for _, n := range registered {
		if !have[n] {
			t.Errorf("registered backend %q has no Protection constant", n)
		}
	}
	if len(all) != len(registered) {
		t.Errorf("%d Protection constants, %d registered backends %v", len(all), len(registered), registered)
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 15 {
		t.Fatalf("Benchmarks() returned %d names", len(bs))
	}
}

func TestRunBenchmarkAcrossProtections(t *testing.T) {
	var execs []Time
	for _, p := range []Protection{ProtectionNone, ProtectionEncrypt, ProtectionObfusMemAuth, ProtectionORAM} {
		m, err := NewMachine(MachineConfig{Protection: p, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunBenchmark("milc", 2000)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecTime <= 0 || res.Reads == 0 {
			t.Fatalf("%v: degenerate result %+v", p, res)
		}
		execs = append(execs, res.ExecTime)
	}
	// unprotected <= encrypt-only <= obfusmem-auth << oram
	if !(execs[0] <= execs[1] && execs[1] <= execs[2] && execs[2] < execs[3]) {
		t.Fatalf("execution times out of order: %v", execs)
	}
}

func TestRunBenchmarkErrors(t *testing.T) {
	m, _ := NewMachine(MachineConfig{})
	if _, err := m.RunBenchmark("nope", 100); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := m.RunBenchmark("mcf", 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestObserverAndTraffic(t *testing.T) {
	m, _ := NewMachine(MachineConfig{Protection: ProtectionObfusMemAuth, Seed: 5})
	obs := m.AttachObserver(1 << 16)
	if _, err := m.RunBenchmark("lbm", 1500); err != nil {
		t.Fatal(err)
	}
	if obs.Packets() == 0 {
		t.Fatal("observer saw nothing")
	}
	if got := obs.TemporalLeakage(); got != 0 {
		t.Fatalf("temporal leakage %v on ObfusMem machine", got)
	}
	ts := m.Traffic()
	if ts.RealReads == 0 || ts.PadsProcessor == 0 || ts.BusBytes == 0 {
		t.Fatalf("traffic counters empty: %+v", ts)
	}
	if ts.CryptoEnergyPJ <= 0 {
		t.Fatal("no crypto energy")
	}
}

func TestTampererDetection(t *testing.T) {
	m, _ := NewMachine(MachineConfig{Protection: ProtectionObfusMemAuth, Seed: 6})
	tmp := m.AttachTamperer(TamperModify, 4)
	if _, err := m.RunBenchmark("zeus", 1000); err != nil {
		t.Fatal(err)
	}
	ev := m.SecurityEvents()
	if tmp.Attacked == 0 {
		t.Fatal("no attacks mounted")
	}
	if ev.TamperDetected < uint64(tmp.Attacked) {
		t.Fatalf("detected %d of %d", ev.TamperDetected, tmp.Attacked)
	}
}

func TestDirectReadWrite(t *testing.T) {
	m, _ := NewMachine(MachineConfig{Protection: ProtectionObfusMem})
	done := m.Read(0, 4096)
	if done <= 0 {
		t.Fatal("read returned non-positive time")
	}
	m.Write(done, 8192)
	m.Drain(done * 2)
}

func TestPathORAMFacade(t *testing.T) {
	o, err := NewPathORAM(PathORAMConfig{Levels: 5, Z: 4, StashCapacity: 100, BlockBytes: 16}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Access(ORAMWrite, 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := o.Access(ORAMRead, 3, nil)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if !errors.Is(ErrStashOverflow, ErrStashOverflow) {
		t.Fatal("sentinel error broken")
	}
	if DefaultPathORAMConfig().Levels != 24 {
		t.Fatal("default ORAM config is not the paper's")
	}
}

func TestExperimentFacadeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	o := ExperimentOptions{Requests: 400, Seed: 11}
	t2 := Table2()
	if t2.Rows() == 0 {
		t.Fatal("Table2 empty")
	}
	t3 := Table3(o)
	if t3.Rows() != 16 { // 15 benchmarks + avg
		t.Fatalf("Table3 rows = %d", t3.Rows())
	}
	tam := Tampering(o)
	if tam.Rows() != 5 {
		t.Fatalf("Tampering rows = %d", tam.Rows())
	}
}

func TestTimingObliviousOnMachine(t *testing.T) {
	m, _ := NewMachine(MachineConfig{
		Protection: ProtectionObfusMemAuth, TimingOblivious: true, Seed: 9})
	res, err := m.RunBenchmark("xalan", 800)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatal("no execution")
	}
	tr := m.Traffic()
	if tr.DroppedAtMemory != 0 {
		t.Fatal("timing-oblivious machine dropped dummies")
	}
	if tr.DummyPCMWrites == 0 {
		t.Fatal("timing-oblivious dummies never hit PCM")
	}
}

func TestIntegrityTreeOnMachine(t *testing.T) {
	with, _ := NewMachine(MachineConfig{Protection: ProtectionEncrypt, IntegrityTree: true, Seed: 11})
	without, _ := NewMachine(MachineConfig{Protection: ProtectionEncrypt, Seed: 11})
	rw, _ := with.RunBenchmark("mcf", 1500)
	ro, _ := without.RunBenchmark("mcf", 1500)
	// Verification traffic adds bus bytes but (lazy checking) only mildly
	// affects latency.
	if with.Traffic().BusBytes <= without.Traffic().BusBytes {
		t.Fatal("integrity tree produced no extra memory traffic")
	}
	if rw.ExecTime < ro.ExecTime {
		t.Fatal("integrity tree made execution faster")
	}
}

func TestReplayTraceOnMachine(t *testing.T) {
	reqs, err := GenerateTrace("zeus", 1200, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMachine(MachineConfig{Protection: ProtectionObfusMemAuth, Seed: 12})
	res := m.ReplayTrace("zeus-trace", reqs)
	if res.Requests != 1200 || res.ExecTime <= 0 {
		t.Fatalf("replay degenerate: %+v", res)
	}
	// Same trace on the same machine config is deterministic.
	m2, _ := NewMachine(MachineConfig{Protection: ProtectionObfusMemAuth, Seed: 12})
	res2 := m2.ReplayTrace("zeus-trace", reqs)
	if res.ExecTime != res2.ExecTime {
		t.Fatal("trace replay not deterministic")
	}
}
