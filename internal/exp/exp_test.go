package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"obfusmem/internal/stats"
)

// Small but statistically meaningful scale for CI.
func testOpts() Options {
	o := QuickOptions()
	o.Requests = 800
	return o
}

func TestTable1Shape(t *testing.T) {
	tb := Table1(testOpts())
	if tb.Rows() != 15 {
		t.Fatalf("Table1 rows = %d, want 15", tb.Rows())
	}
	// Measured MPKI column tracks the paper column roughly.
	for r := 0; r < tb.Rows(); r++ {
		meas, err1 := strconv.ParseFloat(tb.Cell(r, 3), 64)
		pub, err2 := strconv.ParseFloat(tb.Cell(r, 4), 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %d: non-numeric MPKI cells %q %q", r, tb.Cell(r, 3), tb.Cell(r, 4))
		}
		if pub > 1 && (meas < pub*0.5 || meas > pub*1.5) {
			t.Errorf("%s: measured MPKI %.2f far from published %.2f", tb.Cell(r, 0), meas, pub)
		}
	}
}

func TestTable2Static(t *testing.T) {
	tb := Table2()
	s := tb.String()
	for _, want := range []string{"8 GB", "12.8 GB/s", "60ns read, 150ns write", "Counter Cache"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	d := Table3Numbers(testOpts())
	if len(d.Benchmarks) != 15 {
		t.Fatalf("benchmarks = %d", len(d.Benchmarks))
	}
	meanORAM := stats.Mean(d.ORAMOverhead)
	meanObf := stats.Mean(d.ObfusOverhead)
	// The headline claims: ORAM roughly an order of magnitude slowdown,
	// ObfusMem low tens of percent, ~an order of magnitude speedup.
	if meanORAM < 300 {
		t.Errorf("mean ORAM overhead %.1f%%, want several hundred percent", meanORAM)
	}
	if meanObf > 40 || meanObf < 1 {
		t.Errorf("mean ObfusMem overhead %.1f%%, want low tens of percent", meanObf)
	}
	if sp := stats.Mean(d.Speedup); sp < 3 {
		t.Errorf("mean speedup %.1fx, want >> 1", sp)
	}
	// Per-benchmark: every ORAM overhead must exceed the ObfusMem one.
	for i := range d.Benchmarks {
		if d.ORAMOverhead[i] < d.ObfusOverhead[i] {
			t.Errorf("%s: ORAM %.1f%% < ObfusMem %.1f%%", d.Benchmarks[i], d.ORAMOverhead[i], d.ObfusOverhead[i])
		}
	}
	// MPKI ordering: mcf (high MPKI) must suffer more under ORAM than
	// astar (lowest MPKI).
	idx := map[string]int{}
	for i, b := range d.Benchmarks {
		idx[b] = i
	}
	if d.ORAMOverhead[idx["mcf"]] < d.ORAMOverhead[idx["astar"]] {
		t.Error("ORAM overhead not increasing with MPKI (mcf < astar)")
	}
}

func TestFigure4Ordering(t *testing.T) {
	d := Figure4Numbers(testOpts())
	mEnc := stats.Mean(d.EncOnly)
	mObf := stats.Mean(d.ObfusMem)
	mAuth := stats.Mean(d.ObfusAuth)
	if !(mEnc <= mObf+0.5 && mObf <= mAuth+0.5) {
		t.Fatalf("Figure 4 ordering violated: enc %.1f obfus %.1f auth %.1f", mEnc, mObf, mAuth)
	}
	if mEnc <= 0 {
		t.Fatalf("encryption overhead %.2f%% should be positive", mEnc)
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 sweep is slow")
	}
	d := Figure5Numbers(testOpts())
	if len(d.Channels) != 4 {
		t.Fatalf("channels = %v", d.Channels)
	}
	last := len(d.Channels) - 1
	// At 8 channels: OPT must beat UNOPT, auth must cost extra.
	if d.OptNoMAC[last] > d.UnoptNoMAC[last]+0.5 {
		t.Errorf("OPT (%.1f%%) not below UNOPT (%.1f%%) at 8 channels",
			d.OptNoMAC[last], d.UnoptNoMAC[last])
	}
	if d.UnoptAuth[last] < d.UnoptNoMAC[last]-0.5 {
		t.Errorf("auth reduced overhead at 8 channels: %.1f < %.1f",
			d.UnoptAuth[last], d.UnoptNoMAC[last])
	}
	// UNOPT's cost must grow from 2 to 8 channels (Observation 6).
	if d.UnoptNoMAC[last] < d.UnoptNoMAC[1] {
		t.Errorf("UNOPT overhead fell from 2ch (%.1f%%) to 8ch (%.1f%%)",
			d.UnoptNoMAC[1], d.UnoptNoMAC[last])
	}
}

func TestEnergyTable(t *testing.T) {
	tb := Energy(testOpts())
	s := tb.String()
	for _, want := range []string{"780x", "3.9x", "200x", "800", "16"} {
		if !strings.Contains(s, want) {
			t.Errorf("Energy table missing %q:\n%s", want, s)
		}
	}
}

func TestTable4Rows(t *testing.T) {
	tb := Table4(testOpts())
	s := tb.String()
	for _, want := range []string{
		"Spatial pattern", "Temporal pattern", "Read vs write",
		"Memory footprint", "Command authentication", "TCB",
		"Exe time overheads", "Storage overheads", "Write amplification",
		"Deadlock possibility", "Component upgrade",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 4 missing row %q", want)
		}
	}
}

// TestTruncatedTapFails shrinks the bus tap's limit below a run's packet
// count: Table 4 and the leakage sweep must fail with an error naming the
// limit rather than score a truncated wire trace.
func TestTruncatedTapFails(t *testing.T) {
	defer func(l int) { tapLimit = l }(tapLimit)
	tapLimit = 100
	opts := testOpts()
	opts.Requests = 200
	for name, run := range map[string]func(){
		"table4":  func() { Table4(opts) },
		"leakage": func() { LeakageReport(opts) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "past its limit of 100") {
					t.Errorf("%s on a truncated tap: panic %q, want the tap's limit", name, msg)
				}
			}()
			run()
		}()
	}
}

func TestTamperingAllScenarios(t *testing.T) {
	tb := Tampering(testOpts())
	if tb.Rows() != 5 {
		t.Fatalf("rows = %d, want 5 scenarios", tb.Rows())
	}
	for r := 0; r < tb.Rows(); r++ {
		mounted, _ := strconv.Atoi(tb.Cell(r, 1))
		detected, _ := strconv.Atoi(tb.Cell(r, 2))
		kind := tb.Cell(r, 0)
		if mounted == 0 {
			t.Errorf("%s: no attacks mounted", kind)
		}
		switch kind {
		case "corrupt-data":
			if detected != 0 {
				t.Errorf("data corruption flagged by bus MAC (%d)", detected)
			}
		case "drop":
			if detected == 0 {
				t.Errorf("drops never detected")
			}
		default:
			if detected < mounted {
				t.Errorf("%s: detected %d of %d", kind, detected, mounted)
			}
		}
	}
}

func TestSuiteDeterminism(t *testing.T) {
	o := testOpts()
	o.Requests = 300
	a := Table3Numbers(o)
	b := Table3Numbers(o)
	for i := range a.Benchmarks {
		if a.ORAMOverhead[i] != b.ORAMOverhead[i] || a.ObfusOverhead[i] != b.ObfusOverhead[i] {
			t.Fatalf("non-deterministic results for %s", a.Benchmarks[i])
		}
	}
	// Inline and pooled execution must agree exactly.
	o.Workers = 1
	c := Table3Numbers(o)
	for i := range a.Benchmarks {
		if a.ORAMOverhead[i] != c.ORAMOverhead[i] {
			t.Fatalf("pooled/inline divergence for %s", a.Benchmarks[i])
		}
	}
}
