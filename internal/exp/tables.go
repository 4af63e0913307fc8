package exp

import (
	"fmt"

	"obfusmem/internal/cpu"
	"obfusmem/internal/obfus"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// Table1 reproduces "Table 1: Characteristics of the evaluated benchmarks":
// measured IPC, LLC MPKI, and average request gap on the unprotected
// machine, next to the published values.
func Table1(opts Options) *stats.Table {
	res := runSuite(opts, []ModeSpec{{Name: "base", Cfg: system.DefaultConfig("unprotected")}})
	t := stats.NewTable("Table 1: benchmark characteristics (measured vs paper)",
		"Benchmark", "IPC", "IPC(paper)", "MPKI", "MPKI(paper)", "Gap ns", "Gap(paper)")
	for _, p := range workload.SPEC2006() {
		r := res["base"][p.Name]
		t.AddRowf(2, p.Name, r.IPC, p.IPC, r.MPKI, p.MPKI, r.MeanGapNS, p.GapNS)
	}
	t.AddNote("measured on the unprotected machine, %d requests/benchmark", opts.Requests)
	return t
}

// Table2 reproduces "Table 2: Configuration of the simulated system" as a
// dump of the parameters every experiment uses.
func Table2() *stats.Table {
	t := stats.NewTable("Table 2: configuration of the simulated system", "Component", "Configuration")
	rows := [][2]string{
		{"CPU", "4 core, each 2GHz, out-of-order x86-64 (trace-driven model)"},
		{"L1 Cache", "private, 2 cycles, 32KB, 8-way, 64B block"},
		{"L2 Cache", "private, 8 cycles, 512KB, 8-way, 64B block"},
		{"L3 Cache", "shared, 17 cycles, 8MB, 8-way, 64B block"},
		{"Coherence", "MESI protocol (private-L2 snooping)"},
		{"Capacity", "8 GB"},
		{"# Channels", "1 (base), 2, 4 and 8"},
		{"Channel bw", "12.8 GB/s"},
		{"PCM Latencies", "60ns read, 150ns write"},
		{"Organization", "2 ranks/channel, 8 banks/rank, 1KB row buffer, open adaptive, RoRaBaChCo"},
		{"DDR Timing", "tRCD 60ns, tRP 150ns, tBURST 5ns, tCL 13.75ns, 64-bit bus, 800MHz"},
		{"Counter Cache", "5 cycles, 256KB, 8-way, 64B block"},
		{"AES engine", "pipelined AES-128, 24 cycles @ 4ns, 128b/cycle, 15.1mW, 0.204mm^2"},
		{"MD5 unit", "64-stage pipelined, 12.5mW, 0.214mm^2"},
		{"ORAM model", "Path ORAM L=24 Z=4, fixed 2500ns access (optimistic)"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t
}

// table3Specs are the machines Table 3 compares.
func table3Specs() []ModeSpec {
	return []ModeSpec{
		{Name: "base", Cfg: system.DefaultConfig("unprotected")},
		{Name: "oram", Cfg: system.DefaultConfig("oram")},
		{Name: "obfus+auth", Cfg: system.DefaultConfig("obfusmem-auth")},
	}
}

// Table3Data holds the numeric results behind Table 3 for programmatic use.
type Table3Data struct {
	Benchmarks    []string
	ORAMOverhead  []float64 // percent
	ObfusOverhead []float64 // percent
	Speedup       []float64 // ObfusMem+Auth over ORAM
}

// Table3Numbers computes the Table 3 quantities.
func Table3Numbers(opts Options) Table3Data {
	res := runSuite(opts, table3Specs())
	var d Table3Data
	for _, p := range workload.SPEC2006() {
		base := res["base"][p.Name]
		oram := res["oram"][p.Name]
		obf := res["obfus+auth"][p.Name]
		d.Benchmarks = append(d.Benchmarks, p.Name)
		d.ORAMOverhead = append(d.ORAMOverhead, cpu.Overhead(base, oram))
		d.ObfusOverhead = append(d.ObfusOverhead, cpu.Overhead(base, obf))
		d.Speedup = append(d.Speedup, cpu.Speedup(obf, oram))
	}
	return d
}

// Table3 reproduces "Table 3: Execution time overhead comparison of ORAM
// vs. ObfusMem".
func Table3(opts Options) *stats.Table {
	d := Table3Numbers(opts)
	t := stats.NewTable("Table 3: execution time overhead, ORAM vs ObfusMem+Auth",
		"Benchmark", "ORAM", "ObfusMem+Auth", "Speedup")
	for i, b := range d.Benchmarks {
		t.AddRow(b,
			fmt.Sprintf("%.1f%%", d.ORAMOverhead[i]),
			fmt.Sprintf("%.1f%%", d.ObfusOverhead[i]),
			fmt.Sprintf("%.1fx", d.Speedup[i]))
	}
	t.AddRow("Avg",
		fmt.Sprintf("%.1f%%", stats.Mean(d.ORAMOverhead)),
		fmt.Sprintf("%.1f%%", stats.Mean(d.ObfusOverhead)),
		fmt.Sprintf("%.1fx", stats.Mean(d.Speedup)))
	t.AddNote("paper averages: ORAM 946.1%%, ObfusMem+Auth 10.9%%, speedup 9.1x")
	return t
}

// Figure4Data holds the per-benchmark overhead breakdown of Figure 4.
type Figure4Data struct {
	Benchmarks []string
	EncOnly    []float64
	ObfusMem   []float64
	ObfusAuth  []float64
}

// Figure4Numbers computes the Figure 4 series.
func Figure4Numbers(opts Options) Figure4Data {
	res := runSuite(opts, []ModeSpec{
		{Name: "base", Cfg: system.DefaultConfig("unprotected")},
		{Name: "enc", Cfg: system.DefaultConfig("encrypt-only")},
		{Name: "obfus", Cfg: system.DefaultConfig("obfusmem")},
		{Name: "obfus+auth", Cfg: system.DefaultConfig("obfusmem-auth")},
	})
	var d Figure4Data
	for _, p := range workload.SPEC2006() {
		base := res["base"][p.Name]
		d.Benchmarks = append(d.Benchmarks, p.Name)
		d.EncOnly = append(d.EncOnly, cpu.Overhead(base, res["enc"][p.Name]))
		d.ObfusMem = append(d.ObfusMem, cpu.Overhead(base, res["obfus"][p.Name]))
		d.ObfusAuth = append(d.ObfusAuth, cpu.Overhead(base, res["obfus+auth"][p.Name]))
	}
	return d
}

// Figure4 reproduces "Figure 4: The execution time overhead of ObfusMem,
// normalized to unprotected system" (series: memory encryption only, plain
// ObfusMem, ObfusMem with authentication).
func Figure4(opts Options) *stats.Table {
	d := Figure4Numbers(opts)
	t := stats.NewTable("Figure 4: execution-time overhead breakdown (% over unprotected)",
		"Benchmark", "Encryption", "ObfusMem", "ObfusMem+Auth")
	for i, b := range d.Benchmarks {
		t.AddRowf(1, b, d.EncOnly[i], d.ObfusMem[i], d.ObfusAuth[i])
	}
	t.AddRowf(1, "Avg", stats.Mean(d.EncOnly), stats.Mean(d.ObfusMem), stats.Mean(d.ObfusAuth))
	t.AddNote("paper averages: encryption 2.2%%, ObfusMem 8.3%%, ObfusMem+Auth 10.9%%")
	return t
}

// Figure5Data holds the channel-sweep series of Figure 5.
type Figure5Data struct {
	Channels   []int
	UnoptNoMAC []float64
	UnoptAuth  []float64
	OptNoMAC   []float64
	OptAuth    []float64
}

// Figure5Numbers computes the Figure 5 series: mean overhead across the
// suite vs an unprotected machine with the same channel count.
func Figure5Numbers(opts Options) Figure5Data {
	d := Figure5Data{Channels: []int{1, 2, 4, 8}}
	mk := func(ch int, policy obfus.ChannelPolicy, auth bool) system.Config {
		name := "obfusmem"
		if auth {
			name = "obfusmem-auth"
		}
		cfg := system.DefaultConfig(name)
		cfg.Channels = ch
		cfg.Obfus.Policy = policy
		return cfg
	}
	for _, ch := range d.Channels {
		baseCfg := system.DefaultConfig("unprotected")
		baseCfg.Channels = ch
		res := runSuite(opts, []ModeSpec{
			{Name: "base", Cfg: baseCfg},
			{Name: "unopt", Cfg: mk(ch, obfus.PolicyUNOPT, false)},
			{Name: "unopt+auth", Cfg: mk(ch, obfus.PolicyUNOPT, true)},
			{Name: "opt", Cfg: mk(ch, obfus.PolicyOPT, false)},
			{Name: "opt+auth", Cfg: mk(ch, obfus.PolicyOPT, true)},
		})
		var u, ua, o, oa []float64
		for _, p := range workload.SPEC2006() {
			base := res["base"][p.Name]
			u = append(u, cpu.Overhead(base, res["unopt"][p.Name]))
			ua = append(ua, cpu.Overhead(base, res["unopt+auth"][p.Name]))
			o = append(o, cpu.Overhead(base, res["opt"][p.Name]))
			oa = append(oa, cpu.Overhead(base, res["opt+auth"][p.Name]))
		}
		d.UnoptNoMAC = append(d.UnoptNoMAC, stats.Mean(u))
		d.UnoptAuth = append(d.UnoptAuth, stats.Mean(ua))
		d.OptNoMAC = append(d.OptNoMAC, stats.Mean(o))
		d.OptAuth = append(d.OptAuth, stats.Mean(oa))
	}
	return d
}

// Figure5 reproduces "Figure 5: The impact of the number of channels on
// ObfusMem performance, compared to unprotected system with equal number
// of channels".
func Figure5(opts Options) *stats.Table {
	d := Figure5Numbers(opts)
	t := stats.NewTable("Figure 5: mean overhead (%) vs channels",
		"Channels", "UNOPT", "UNOPT+Auth", "OPT", "OPT+Auth")
	for i, ch := range d.Channels {
		t.AddRowf(1, ch, d.UnoptNoMAC[i], d.UnoptAuth[i], d.OptNoMAC[i], d.OptAuth[i])
	}
	t.AddNote("paper at 8 channels: UNOPT up to 16.3%%/18.8%% (plain/auth), OPT up to 10.1%%/13.2%%")
	return t
}
