package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// loadRecords reads the untraced records of a runs.jsonl, grouped by
// workload in file order.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// verdict is the outcome for one (workload, metric).
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// wins counts the pairs in which the change reads better than the parent;
// ties count for neither side.
func wins(parent, change []float64, better string) int {
	n := 0
	for i := 0; i < min(len(parent), len(change)); i++ {
		if beats(change[i], parent[i], better) {
			n++
		}
	}
	return n
}

func beats(a, b float64, better string) bool {
	if better == "higher" {
		return a > b
	}
	return a < b
}

// worseBy is how far the change's median is worse than the parent's, as a
// share of the parent's median (negative when it is better).
func worseBy(parentMedian, changeMedian float64, better string) float64 {
	d := (changeMedian - parentMedian) / parentMedian
	if better == "higher" {
		return -d
	}
	return d
}

// judge applies the rule for a claimed gain (at least minPairs alternated
// pairs, the change winning at least nine in ten, medians further apart
// than the parent's interquartile range) and the bound for a regression.
// When the parent's spread exceeds the bound, a metric that is not worse by
// construction is unresolved, unless every change run beats every parent
// run.
func judge(parent, change []float64, better string, bound float64) verdict {
	pairs := min(len(parent), len(change))
	if pairs < minPairs {
		return unresolved
	}
	pm, cm := median(parent), median(change)
	q1, _, q3 := quartiles(parent)
	if w := wins(parent, change, better); 10*w >= 9*pairs && beats(cm, pm, better) && math.Abs(cm-pm) > q3-q1 {
		return improved
	}
	if (q3-q1)/pm > bound {
		if allBeat(parent, change, better) {
			return unchanged
		}
		return unresolved
	}
	if worseBy(pm, cm, better) > bound {
		return worse
	}
	return unchanged
}

func allBeat(parent, change []float64, better string) bool {
	for _, c := range change {
		for _, p := range parent {
			if !beats(c, p, better) {
				return false
			}
		}
	}
	return true
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bm := fs.String("benchmark", "", "BENCHMARK.json holding the bounds (default: found from the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: obfbench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	path := *bm
	if path == "" {
		path = benchmarkJSON()
	}
	b, err := loadBenchmark(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	parent, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-20s %5s %28s %28s %5s  %s\n", "workload", "metric", "pairs",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range b.Workloads {
		pr, cr := parent[wl.Name], change[wl.Name]
		pf, cf := 0, 0
		for _, r := range pr {
			pf += r.Result.Failed
		}
		for _, r := range cr {
			cf += r.Result.Failed
		}
		if cf > pf {
			fmt.Fprintf(stdout, "%-16s %d failed cells in the change, %d in the parent: worse\n", wl.Name, cf, pf)
			code = 1
		}
		for _, m := range b.EndToEnd {
			pv, cv := values(pr, m.Name), values(cr, m.Name)
			v := judge(pv, cv, m.Better, m.Bound)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-20s %5d %28s %28s %5d  %s\n", wl.Name, m.Name, min(len(pv), len(cv)),
				summary(pv), summary(cv), wins(pv, cv, m.Better), v)
		}
	}
	return code
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}
