package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each case, computed by CPython.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{4, 8}, 3, 6, 9}, // extrapolates beyond the data, as Python does
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 99: 0, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestWinsAndJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(parent))
	for i, p := range parent {
		faster[i] = p * 0.8
	}
	if w := wins(parent, faster, "lower"); w != 10 {
		t.Errorf("wins = %d, want 10", w)
	}
	if w := wins(parent, parent, "lower"); w != 0 {
		t.Errorf("ties won %d pairs, want 0", w)
	}
	if w := wins(parent, faster, "higher"); w != 0 {
		t.Errorf("wins with higher-is-better = %d, want 0", w)
	}
	if v := judge(parent, faster, "lower", 0.1); v != improved {
		t.Errorf("20%% faster in every pair: %s, want improved", v)
	}
	if v := judge(parent[:9], faster[:9], "lower", 0.1); v != unresolved {
		t.Errorf("nine pairs: %s, want unresolved", v)
	}
	// Eight wins in ten is short of nine in ten.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = 200, 200
	if v := judge(parent, mixed, "lower", 0.1); v == improved {
		t.Errorf("8 of 10 wins judged improved")
	}
}

func TestJudgeBound(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	if v := judge(parent, scaled(1.05), "lower", 0.1); v != unchanged {
		t.Errorf("5%% slower within a 10%% bound: %s, want unchanged", v)
	}
	if v := judge(parent, scaled(1.15), "lower", 0.1); v != worse {
		t.Errorf("15%% slower past a 10%% bound: %s, want worse", v)
	}
	if v := judge(parent, scaled(0.85), "higher", 0.1); v != worse {
		t.Errorf("15%% lower throughput past a 10%% bound: %s, want worse", v)
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(noisy, noisy, "lower", 0.1); v != unresolved {
		t.Errorf("spread wider than the bound: %s, want unresolved", v)
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale and
// checks that every metric BENCHMARK.json names is printed with its unit and
// that no cell fails. It asserts nothing about timing.
func TestSmoke(t *testing.T) {
	bm, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bm.Workloads), len(workloads))
	}
	for i, wl := range bm.Workloads {
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, wl.Name, workloads[i].name)
		}
	}
	checkDefs(t, "end_to_end", bm.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", bm.PerLayer, perLayer)

	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				o := options{seed: 42, seconds: 1, traced: traced, out: dir, rounds: 1, requests: 300}
				rep := runWorkload(w, o)
				res := rep.result()
				var buf bytes.Buffer
				printReport(&buf, rep, res)
				if err := save(rep, res); err != nil {
					t.Fatal(err)
				}
				out := buf.String()
				want := bm.EndToEnd
				if traced {
					want = bm.PerLayer
				} else if !strings.Contains(out, "\n  fail_frac ") || rep.values["fail_frac"] != 0 {
					t.Errorf("fail_frac = %v, want a printed 0", rep.values["fail_frac"])
				}
				if rep.failed != 0 || !res.Correct {
					t.Fatalf("%d of %d cells failed:\n%s", rep.failed, rep.attempted, out)
				}
				lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					if !printed(lines, m.Name, m.Unit) {
						t.Errorf("%s is not printed with unit %s", m.Name, m.Unit)
					}
					v, ok := last.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
						t.Errorf("result line: %s = %+v", m.Name, v)
					}
				}
			})
		}
	}
	for _, name := range []string{"runs.jsonl", "suite.spans.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Contains(data, []byte(`"benchmark_json_sha256"`)) {
			t.Errorf("%s lacks its provenance header (%v)", name, err)
		}
	}
}

func checkDefs(t *testing.T, list string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", list, len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", list, i, got[i], want[i])
		}
	}
}

func printed(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}
