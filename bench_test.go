// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices called
// out in DESIGN.md. Each benchmark regenerates its artefact and reports
// the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Time-per-op measures simulator cost;
// the custom metrics carry the paper-comparable results.
package obfusmem_test

import (
	"testing"

	"obfusmem"
	"obfusmem/internal/cpu"
	"obfusmem/internal/exp"
	"obfusmem/internal/metrics"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
)

// BenchmarkMetricsOverhead measures the observability layer's hot-path
// cost directly: the same ObfusMem+Auth run with the registry off and on.
// The nil-instrument fast path must keep "off" within noise of the seed
// repo and "on" within the 5% budget.
func BenchmarkMetricsOverhead(b *testing.B) {
	p, err := workload.ByName("milc")
	if err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := system.DefaultConfig("obfusmem-auth")
			cfg.Seed = 9
			if on {
				cfg.Metrics = metrics.NewRegistry()
			}
			for i := 0; i < b.N; i++ {
				sys := system.New(cfg)
				cpu.Run(p, 3000, sys, cpu.DefaultConfig(), cfg.Seed+7)
			}
		})
	}
}

// BenchmarkTraceOverhead measures the tracing layer's hot-path cost
// directly: the same ObfusMem+Auth run with the span recorder off (nil
// hooks — must be free) and on.
func BenchmarkTraceOverhead(b *testing.B) {
	p, err := workload.ByName("milc")
	if err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := system.DefaultConfig("obfusmem-auth")
			cfg.Seed = 9
			ccfg := cpu.DefaultConfig()
			for i := 0; i < b.N; i++ {
				if on {
					rec := trace.New(trace.DefaultLimit)
					cfg.Trace = rec
					ccfg.Trace = rec
				}
				sys := system.New(cfg)
				cpu.Run(p, 3000, sys, ccfg, cfg.Seed+7)
			}
		})
	}
}

// benchOpts scales each in-benchmark experiment: large enough to be
// statistically stable, small enough to iterate.
func benchOpts() obfusmem.ExperimentOptions {
	return obfusmem.ExperimentOptions{Requests: 2000, Seed: 42}
}

func expOpts() exp.Options {
	o := exp.DefaultOptions()
	o.Requests = 2000
	return o
}

// BenchmarkTable1 regenerates the benchmark-characteristics table and
// reports the mean relative error of the measured request gap vs Table 1.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := obfusmem.Table1(benchOpts())
		if t.Rows() != 15 {
			b.Fatalf("rows = %d", t.Rows())
		}
	}
}

// BenchmarkTable3 regenerates the ORAM vs ObfusMem comparison and reports
// the suite-average overheads and speedup (paper: 946.1%, 10.9%, 9.1x).
func BenchmarkTable3(b *testing.B) {
	var d exp.Table3Data
	for i := 0; i < b.N; i++ {
		d = exp.Table3Numbers(expOpts())
	}
	b.ReportMetric(stats.Mean(d.ORAMOverhead), "oram-%")
	b.ReportMetric(stats.Mean(d.ObfusOverhead), "obfus-%")
	b.ReportMetric(stats.Mean(d.Speedup), "speedup-x")
}

// BenchmarkFigure4 regenerates the protection-level breakdown and reports
// the three suite averages (paper: 2.2%, 8.3%, 10.9%).
func BenchmarkFigure4(b *testing.B) {
	var d exp.Figure4Data
	for i := 0; i < b.N; i++ {
		d = exp.Figure4Numbers(expOpts())
	}
	b.ReportMetric(stats.Mean(d.EncOnly), "enc-%")
	b.ReportMetric(stats.Mean(d.ObfusMem), "obfus-%")
	b.ReportMetric(stats.Mean(d.ObfusAuth), "auth-%")
}

// BenchmarkFigure5 regenerates the channel sweep and reports the
// eight-channel endpoints (paper: UNOPT 16.3/18.8%, OPT 10.1/13.2%).
func BenchmarkFigure5(b *testing.B) {
	o := expOpts()
	o.Requests = 1200 // 4 channel counts x 5 configs x 15 benchmarks
	var d exp.Figure5Data
	for i := 0; i < b.N; i++ {
		d = exp.Figure5Numbers(o)
	}
	last := len(d.Channels) - 1
	b.ReportMetric(d.UnoptNoMAC[last], "unopt8-%")
	b.ReportMetric(d.UnoptAuth[last], "unopt8auth-%")
	b.ReportMetric(d.OptNoMAC[last], "opt8-%")
	b.ReportMetric(d.OptAuth[last], "opt8auth-%")
}

// BenchmarkEnergy regenerates the Section 5.2 energy/lifetime analysis.
func BenchmarkEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Energy(expOpts())
		if t.Rows() == 0 {
			b.Fatal("empty energy table")
		}
	}
}

// BenchmarkTable4 regenerates the measured security comparison.
func BenchmarkTable4(b *testing.B) {
	o := expOpts()
	o.Requests = 1200
	for i := 0; i < b.N; i++ {
		t := exp.Table4(o)
		if t.Rows() < 11 {
			b.Fatalf("rows = %d", t.Rows())
		}
	}
}

// BenchmarkTampering regenerates the Section 3.5 active-attack matrix.
func BenchmarkTampering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Tampering(expOpts())
		if t.Rows() != 5 {
			b.Fatalf("rows = %d", t.Rows())
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// runMachine measures one machine's execution time on a benchmark.
func runMachine(b *testing.B, cfg obfusmem.MachineConfig, bench string) obfusmem.Result {
	b.Helper()
	m, err := obfusmem.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.RunBenchmark(bench, 3000)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkDummyDesigns compares the three Section 3.3 dummy-address
// designs on a read-heavy workload, reporting extra PCM array writes per
// 1000 requests (fixed must be 0).
func BenchmarkDummyDesigns(b *testing.B) {
	designs := []struct {
		name string
		d    obfusmem.DummyDesign
	}{
		{"fixed", obfusmem.FixedAddress},
		{"original", obfusmem.OriginalAddress},
		{"random", obfusmem.RandomAddress},
	}
	for _, d := range designs {
		b.Run(d.name, func(b *testing.B) {
			var extra float64
			for i := 0; i < b.N; i++ {
				m, err := obfusmem.NewMachine(obfusmem.MachineConfig{
					Protection: obfusmem.ProtectionObfusMem, Dummy: d.d, Seed: 9})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.RunBenchmark("bwaves", 3000); err != nil {
					b.Fatal(err)
				}
				t := m.Traffic()
				extra = float64(t.DummyPCMWrites+t.DummyPCMReads) / 3.0
			}
			b.ReportMetric(extra, "dummyPCM/kreq")
		})
	}
}

// BenchmarkPairingOrder compares read-then-write vs write-then-read pair
// order (Section 3.3: reads are on the critical path).
func BenchmarkPairingOrder(b *testing.B) {
	orders := []struct {
		name string
		o    obfusmem.PairOrder
	}{
		{"read-then-write", obfusmem.ReadThenWrite},
		{"write-then-read", obfusmem.WriteThenRead},
	}
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := runMachine(b, obfusmem.MachineConfig{
					Protection: obfusmem.ProtectionObfusMem, Order: o.o, Seed: 9}, "milc")
				lat = res.MeanReadNS
			}
			b.ReportMetric(lat, "read-ns")
		})
	}
}

// BenchmarkMACMode compares encrypt-and-MAC vs encrypt-then-MAC
// (Observation 4: overlap wins).
func BenchmarkMACMode(b *testing.B) {
	modes := []struct {
		name string
		m    obfusmem.MACMode
	}{
		{"none", obfusmem.MACNone},
		{"encrypt-and-MAC", obfusmem.EncryptAndMAC},
		{"encrypt-then-MAC", obfusmem.EncryptThenMAC},
	}
	for _, mm := range modes {
		b.Run(mm.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := runMachine(b, obfusmem.MachineConfig{
					Protection: obfusmem.ProtectionObfusMem, MAC: mm.m, Seed: 9}, "milc")
				lat = res.MeanReadNS
			}
			b.ReportMetric(lat, "read-ns")
		})
	}
}

// BenchmarkChannelScaling sweeps channels for the paper-preferred OPT
// policy, reporting mean read latency.
func BenchmarkChannelScaling(b *testing.B) {
	for _, ch := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "1ch", 2: "2ch", 4: "4ch", 8: "8ch"}[ch], func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := runMachine(b, obfusmem.MachineConfig{
					Protection: obfusmem.ProtectionObfusMemAuth, Channels: ch,
					Policy: obfusmem.PolicyOPT, Seed: 9}, "bwaves")
				lat = res.MeanReadNS
			}
			b.ReportMetric(lat, "read-ns")
		})
	}
}

// BenchmarkIntegrityTree measures the cost of adding Bonsai Merkle
// verification traffic to ObfusMem+Auth (the paper's full baseline
// assumption), reporting mean read latency with and without.
func BenchmarkIntegrityTree(b *testing.B) {
	for _, integ := range []bool{false, true} {
		name := "off"
		if integ {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := runMachine(b, obfusmem.MachineConfig{
					Protection:    obfusmem.ProtectionObfusMemAuth,
					IntegrityTree: integ, Seed: 9}, "mcf")
				lat = res.MeanReadNS
			}
			b.ReportMetric(lat, "read-ns")
		})
	}
}

// BenchmarkTimingOblivious measures the Section 6.2 extension's cost on a
// memory-intensive workload.
func BenchmarkTimingOblivious(b *testing.B) {
	for _, obliv := range []bool{false, true} {
		name := "standard"
		if obliv {
			name = "oblivious"
		}
		b.Run(name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := runMachine(b, obfusmem.MachineConfig{
					Protection:      obfusmem.ProtectionObfusMem,
					TimingOblivious: obliv, Seed: 9}, "milc")
				lat = res.MeanReadNS
			}
			b.ReportMetric(lat, "read-ns")
		})
	}
}
