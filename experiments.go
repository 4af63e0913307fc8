package obfusmem

import (
	"obfusmem/internal/cpu"
	"obfusmem/internal/exp"
	"obfusmem/internal/stats"
)

// ExperimentOptions scales the paper-reproduction harness.
type ExperimentOptions struct {
	// Requests per benchmark per configuration (default 8000).
	Requests int
	Seed     uint64
	// Exposure is the fraction of read latency reaching execution time
	// (default 0.55, the calibration in DESIGN.md).
	Exposure float64
	// Workers sizes the benchmark worker pool; 0 means one worker per
	// available CPU (runtime.GOMAXPROCS) and 1 runs benchmarks inline.
	Workers int
}

func (o ExperimentOptions) internal() exp.Options {
	io := exp.DefaultOptions()
	if o.Requests > 0 {
		io.Requests = o.Requests
	}
	if o.Seed != 0 {
		io.Seed = o.Seed
	}
	if o.Exposure > 0 {
		io.CPU = cpu.Config{Exposure: o.Exposure, WriteBuffer: 16}
	}
	io.Workers = o.Workers
	return io
}

// ResultTable is a formatted experiment result; String() renders it
// aligned, CSV() renders comma-separated values.
type ResultTable = stats.Table

// Experiment entry points — one per table/figure of the paper's
// evaluation. Each returns the regenerated rows next to the published
// reference values.
var _ = exp.DefaultOptions // keep the package linked even if only some entry points are used

// Table1 regenerates "Table 1: Characteristics of the evaluated
// benchmarks" (measured vs paper).
func Table1(o ExperimentOptions) *ResultTable { return exp.Table1(o.internal()) }

// Table2 dumps "Table 2: Configuration of the simulated system".
func Table2() *ResultTable { return exp.Table2() }

// Table3 regenerates "Table 3: Execution time overhead comparison of ORAM
// vs. ObfusMem".
func Table3(o ExperimentOptions) *ResultTable { return exp.Table3(o.internal()) }

// Figure4 regenerates "Figure 4: The execution time overhead of ObfusMem,
// normalized to unprotected system".
func Figure4(o ExperimentOptions) *ResultTable { return exp.Figure4(o.internal()) }

// Figure5 regenerates "Figure 5: The impact of the number of channels on
// ObfusMem performance".
func Figure5(o ExperimentOptions) *ResultTable { return exp.Figure5(o.internal()) }

// Energy regenerates the Section 5.2 energy and lifetime analysis.
func Energy(o ExperimentOptions) *ResultTable { return exp.Energy(o.internal()) }

// Table4 regenerates "Table 4: Comparing ORAM and ObfusMem" with measured
// evidence.
func Table4(o ExperimentOptions) *ResultTable { return exp.Table4(o.internal()) }

// Tampering regenerates the Section 3.5 active-attack scenarios.
func Tampering(o ExperimentOptions) *ResultTable { return exp.Tampering(o.internal()) }

// TimingObliviousStudy evaluates the Section 6.2 timing-side-channel
// extension: leakage before/after and its execution/PCM cost.
func TimingObliviousStudy(o ExperimentOptions) *ResultTable { return exp.TimingOblivious(o.internal()) }
