package obfusmem

import (
	"fmt"
	"testing"
)

// facadeGolden pins what NewMachine builds: every Protection constant on 1
// and 2 channels at the zero seed, plus two rows that set every ObfusMem
// design knob. A change to how the facade maps a MachineConfig onto a
// machine shows up as a changed execution time, bus byte count, PCM
// array-write count or processor pad count on 2000 milc requests.
var facadeGolden = []struct {
	cfg      MachineConfig
	exec     Time
	busBytes uint64
	writes   uint64
	pads     uint64
}{
	{MachineConfig{Protection: ProtectionNone, Channels: 1}, 107534121, 160000, 463, 0},
	{MachineConfig{Protection: ProtectionNone, Channels: 2}, 103615555, 160000, 461, 0},
	{MachineConfig{Protection: ProtectionEncrypt, Channels: 1}, 114534951, 174480, 464, 0},
	{MachineConfig{Protection: ProtectionEncrypt, Channels: 2}, 108225691, 174480, 462, 0},
	{MachineConfig{Protection: ProtectionObfusMem, Channels: 1}, 122690808, 245760, 477, 15352},
	{MachineConfig{Protection: ProtectionObfusMem, Channels: 2}, 120499893, 331360, 479, 18562},
	{MachineConfig{Protection: ProtectionObfusMemAuth, Channels: 1}, 128562885, 282624, 478, 15352},
	{MachineConfig{Protection: ProtectionObfusMemAuth, Channels: 2}, 126732238, 378488, 483, 18478},
	{MachineConfig{Protection: ProtectionORAM, Channels: 1}, 2123587965, 0, 0, 0},
	{MachineConfig{Protection: ProtectionORAM, Channels: 2}, 2123587965, 0, 0, 0},
	{MachineConfig{Protection: ProtectionPalermo, Channels: 1}, 246021329, 800000, 1278, 0},
	{MachineConfig{Protection: ProtectionPalermo, Channels: 2}, 193886011, 800000, 1151, 0},
	{MachineConfig{Protection: ProtectionObfusMem, Channels: 2, Dummy: RandomAddress,
		Policy: PolicyUNOPT, MAC: EncryptThenMAC, Seed: 7}, 237709728, 549424, 2868, 23884},
	{MachineConfig{Protection: ProtectionObfusMemAuth, Channels: 2, Order: WriteThenRead,
		TimingOblivious: true, Seed: 7}, 332048779, 1467952, 694, 53836},
}

func TestFacadeGolden(t *testing.T) {
	for _, g := range facadeGolden {
		m, err := NewMachine(g.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", g.cfg, err)
		}
		res, err := m.RunBenchmark("milc", 2000)
		if err != nil {
			t.Fatal(err)
		}
		tr := m.Traffic()
		got := fmt.Sprintf("%d %d %d %d", res.ExecTime, tr.BusBytes, tr.PCMArrayWrites, tr.PadsProcessor)
		want := fmt.Sprintf("%d %d %d %d", g.exec, g.busBytes, g.writes, g.pads)
		if got != want {
			t.Errorf("%+v: exec, bus bytes, array writes, pads = %s, want %s", g.cfg, got, want)
		}
	}
}
