package exp

import (
	"fmt"

	"obfusmem/internal/cpu"
	"obfusmem/internal/stats"
)

// Sensitivity sweeps the one free parameter of the execution-time model —
// the read-latency exposure fraction — and shows that the paper's
// conclusions (order-of-magnitude ORAM slowdown, ~10% ObfusMem overhead,
// ~9x speedup) hold across the plausible range, not just at the calibrated
// 0.55.
func Sensitivity(opts Options) *stats.Table {
	t := stats.NewTable("Model-sensitivity sweep: read-latency exposure",
		"Exposure", "ORAM avg", "ObfusMem+Auth avg", "Speedup avg")
	for _, expo := range []float64{0.3, 0.45, 0.55, 0.7, 0.85} {
		o := opts
		o.CPU = cpu.Config{Exposure: expo}
		d := Table3Numbers(o)
		t.AddRow(fmt.Sprintf("%.2f", expo),
			fmt.Sprintf("%.0f%%", stats.Mean(d.ORAMOverhead)),
			fmt.Sprintf("%.1f%%", stats.Mean(d.ObfusOverhead)),
			fmt.Sprintf("%.1fx", stats.Mean(d.Speedup)))
	}
	t.AddNote("conclusions must hold at every row: ORAM >> ObfusMem, speedup >> 1")
	return t
}
