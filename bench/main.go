// Command obfbench measures what the simulator costs its users in host time
// per simulated request, on five workloads, and checks that the simulated
// results are correct. With -trace 1 it also breaks the host time down by
// layer, measured from outside the layers. See README.md.
//
//	bash bench/run.sh                              # every workload, each in a child process
//	bash bench/run.sh -workload suite -seed 7      # one workload
//	bash bench/run.sh -workload suite -trace 1     # its per-layer breakdown
//	bash bench/run.sh compare A.jsonl B.jsonl      # parent vs change
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json; the golden digests
// cover every cell a default run makes at seed 42.
const defaultSeconds = 10

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees; every untraced run
// prints all of them.
var endToEnd = []metricDef{
	{"req_per_s", "req/s", "higher", 0},
	{"ns_per_req", "ns", "lower", 0},
	{"setup_s", "s", "lower", 0},
	{"heap_live_mb", "MiB", "lower", 0},
	{"alloc_bytes_per_req", "B", "lower", 0},
	{"allocs_per_req", "count", "lower", 0},
}

// perLayer is defined on every workload; every traced run prints all of
// them.
var perLayer = []metricDef{
	{"workload.ns_per_req", "ns", "lower", 0},
	{"workload.share", "frac", "lower", 0},
	{"cpu.self_ns_per_req", "ns", "lower", 0},
	{"system.ns_per_req", "ns", "lower", 0},
	{"ctrmode.ns_per_call", "ns", "lower", 0},
	{"obfus.ns_per_leg", "ns", "lower", 0},
	{"obfus.inter_channel_pairs_per_req", "count", "lower", 0},
	{"aes.ns_per_pad", "ns", "lower", 0},
	{"md5sim.ns_per_mac", "ns", "lower", 0},
	{"bus.ns_per_transfer", "ns", "lower", 0},
	{"bus.packets_per_req", "count", "lower", 0},
	{"memctl.ns_per_access", "ns", "lower", 0},
	{"memctl.accesses_per_req", "count", "lower", 0},
	{"pcm.ns_per_access", "ns", "lower", 0},
	{"pcm.row_hit_rate", "frac", "higher", 0},
	{"pcm.array_writes_per_req", "count", "lower", 0},
	{"exp.pool_busy_frac", "frac", "higher", 0},
	{"exp.round_tail_s", "s", "lower", 0},
	{"bench.residual_ns_per_req", "ns", "lower", 0},
	{"bench.timer_ns", "ns", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// extras are printed and saved where a workload defines them, but are not
// in the result line: they exist on some workloads only.
var extras = []metricDef{
	{"fail_frac", "fraction", "lower", 0},
	{"paper_err_pct", "%", "lower", 0},
	{"ns_per_req_p50", "ns", "lower", 0},
	{"ns_per_req_p90", "ns", "lower", 0},
	{"wall_req_per_s", "req/s", "higher", 0},
	{"max_rss_mb", "MiB", "lower", 0},
	{"bench.slowdown", "x", "lower", 0},
	{"bench.startup_s", "s", "lower", 0},
	{"cpu.sim_stall_frac", "frac", "lower", 0},
	{"system.read_ns_p50", "ns", "lower", 0},
	{"system.read_ns_p90", "ns", "lower", 0},
	{"system.write_ns_p50", "ns", "lower", 0},
	{"system.write_ns_p90", "ns", "lower", 0},
	{"system.new_us", "us", "lower", 0},
	{"ctrmode.ctr_hit_rate", "frac", "higher", 0},
	{"ctrmode.fetches_per_req", "count", "lower", 0},
	{"obfus.dummies_per_req", "count", "lower", 0},
	{"obfus.macs_per_req", "count", "lower", 0},
	{"obfus.pads_per_req", "count", "lower", 0},
	{"obfus.substituted_frac", "frac", "higher", 0},
	{"bus.busy_frac", "frac", "lower", 0},
	{"oram.ns_per_req", "ns", "lower", 0},
	{"palermo.ns_per_req", "ns", "lower", 0},
	{"metrics.overhead_ns_per_req", "ns", "lower", 0},
	{"trace.overhead_ns_per_req", "ns", "lower", 0},
	{"trace.spans_per_req", "count", "lower", 0},
	{"trace.dropped_frac", "frac", "lower", 0},
	{"trace.export_ns_per_span", "ns", "lower", 0},
	{"attack.observer_ns_per_packet", "ns", "lower", 0},
	{"leakage.evaluate_ms_per_cell", "ms", "lower", 0},
	{"sim.events_per_req", "count", "lower", 0},
	{"sim.seq_ns_per_req", "ns", "lower", 0},
	{"sim.shard_speedup_x", "x", "higher", 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("obfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	var o options
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "nominal timed seconds; fixes the round count, never a time limit")
	trace := fs.Int("trace", 0, "1 runs the traced mode, which prints the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory to append runs.jsonl to (and write span dumps into)")
	fs.StringVar(&o.golden, "record-golden", "", "directory to write golden digests into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds < 1 {
		fmt.Fprintln(stderr, "usage: obfbench [-workload name|all] [-seed n] [-seconds n] [-trace 0|1] [-out dir] [-record-golden dir]")
		return 2
	}
	o.traced = *trace == 1
	if *name == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	rep := runWorkload(w, o)
	res := rep.result()
	printReport(stdout, rep, res)
	if err := save(rep, res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after another,
// and ends with a result line that sums them (metrics keyed workload/name).
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", map[bool]string{false: "0", true: "1"}[o.traced]}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		if o.golden != "" {
			args = append(args, "-record-golden", o.golden)
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		out := strings.TrimRight(buf.String(), "\n")
		lines := strings.Split(out, "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); runErr != nil || err != nil {
			fmt.Fprintf(stderr, "workload %s: %v %v\n", w.name, runErr, err)
			total.Correct, code = false, 1
			continue
		}
		fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		panic(err) // the children's values were finite JSON numbers
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// result assembles the result line: every end-to-end metric, or with
// -trace 1 every per-layer metric.
func (r *report) result() result {
	res := result{Correct: r.correct && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range r.contract() {
		res.Metrics[d.Name] = metricValue{r.values[d.Name], d.Unit}
	}
	return res
}

func (r *report) contract() []metricDef {
	if r.o.traced {
		return perLayer
	}
	return endToEnd
}

func printReport(w io.Writer, r *report, res result) {
	mode := "untraced"
	if r.o.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "obfbench %s: %s seed=%d rounds=%d cells=%d requests/cell=%d workers=%d\n",
		r.w.name, mode, r.o.seed, r.rounds, len(r.cells), r.n, r.w.workers)
	for _, d := range append(r.contract(), extras...) {
		if v, ok := r.values[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %-16s %s\n", d.Name, strconv.FormatFloat(v, 'g', 7, 64), d.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // every metric is finite by construction (ratio guards its divisions)
	}
	fmt.Fprintln(w, string(line))
}

// provenance heads every file the benchmark writes.
type provenance struct {
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Revision        string `json:"vcs_revision"`
	Modified        string `json:"vcs_modified"`
	Seed            uint64 `json:"seed"`
	Rounds          int    `json:"rounds"`
	Seconds         int    `json:"seconds"`
	BenchmarkSHA256 string `json:"benchmark_json_sha256"`
}

func newProvenance(r *report) provenance {
	p := provenance{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: "unknown", Modified: "unknown",
		Seed: r.o.seed, Rounds: r.rounds, Seconds: r.o.seconds, BenchmarkSHA256: "absent"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	if path := benchmarkJSON(); path != "" {
		if data, err := os.ReadFile(path); err == nil {
			sum := sha256.Sum256(data)
			p.BenchmarkSHA256 = hex.EncodeToString(sum[:])
		}
	}
	return p
}

// benchmarkJSON finds BENCHMARK.json from the repository root (run.sh) or
// from bench/ (go run .).
func benchmarkJSON() string {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

// record is one line of runs.jsonl, the input of compare.
type record struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Cells      int                `json:"cells"`
	Requests   int                `json:"requests_per_cell"`
	Result     result             `json:"result"`
	All        map[string]float64 `json:"all_metrics"`
	Notes      []string           `json:"notes"`
}

// save writes the outputs -out and -record-golden ask for.
func save(r *report, res result) error {
	if r.o.golden != "" {
		if err := writeGolden(r); err != nil {
			return err
		}
	}
	if r.o.out == "" {
		return nil
	}
	if err := os.MkdirAll(r.o.out, 0o755); err != nil {
		return err
	}
	prov := newProvenance(r)
	line, err := json.Marshal(record{Provenance: prov, Workload: r.w.name, Traced: r.o.traced, Cells: len(r.cells),
		Requests: r.n, Result: res, All: r.values, Notes: r.notes})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(r.o.out, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	if err := errors.Join(werr, f.Close()); err != nil {
		return err
	}
	if !r.o.traced {
		return nil
	}
	dump, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Workload   string     `json:"workload"`
		Dropped    int        `json:"dropped"`
		Spans      []span     `json:"spans"`
	}{prov, r.w.name, r.dropped, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.o.out, r.w.name+".spans.json"), dump, 0o644)
}
