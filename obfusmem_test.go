package obfusmem

import (
	"errors"
	"testing"

	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(MachineConfig{Channels: 3}); err == nil {
		t.Error("3 channels accepted")
	}
	if _, err := NewMachine(MachineConfig{Protection: "no-such-scheme"}); err == nil {
		t.Error("unknown protection accepted")
	}
	// An undefined design knob is an error, not a panic inside NewMachine.
	if _, err := NewMachine(MachineConfig{Protection: ProtectionObfusMem, Channels: 2, Policy: 9}); err == nil {
		t.Error("undefined channel policy accepted")
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

func TestReplayTraceOnMachine(t *testing.T) {
	p, err := workload.ByName("zeus")
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.Generate(p, 1200, 3)
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
