package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"obfusmem/internal/leakage"
	"obfusmem/internal/metrics"
	"obfusmem/internal/trace"
)

// TestMetricsSnapshotEndToEnd drives the binary in-process with -metrics
// and validates the exported JSON: it must parse back into a snapshot that
// carries per-channel bus counters, counter-cache counters and PCM latency
// histograms.
func TestMetricsSnapshotEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "table3", "-requests", "400", "-metrics", "-metrics-out", out}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 3") && stdout.Len() == 0 {
		t.Fatal("no experiment output produced")
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}

	// Per-channel bus counters: channel 0 exists in every machine and the
	// whole run moved traffic on it.
	for _, name := range []string{
		"bus.ch0.read_packets", "bus.ch0.write_packets",
		"bus.ch0.cmd_packets", "bus.ch0.bytes", "bus.ch0.req_busy_ps",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q missing or zero", name)
		}
	}
	// ObfusMem machines ran, so dummy traffic and obfus counters exist.
	if snap.Counters["bus.ch0.dummy_packets"] == 0 {
		t.Error("no dummy packets recorded despite ObfusMem runs")
	}
	if snap.Counters["obfus.real_reads"] == 0 || snap.Counters["obfus.dummy_writes"] == 0 {
		t.Error("obfus real/dummy split not recorded")
	}
	// Every protected machine's counter cache.
	for _, name := range []string{"ctrmode.ctr_hits", "ctrmode.ctr_misses", "ctrmode.ctr_fetches"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q missing or zero", name)
		}
	}

	// PCM latency histograms: populated, with bucket mass adding up.
	h, ok := snap.Histograms["pcm.ch0.access_ns"]
	if !ok || h.Count == 0 {
		t.Fatalf("pcm.ch0.access_ns histogram missing or empty: %+v", h)
	}
	var mass uint64
	for _, c := range h.Counts {
		mass += c
	}
	if mass != h.Count {
		t.Errorf("histogram bucket mass %d != count %d", mass, h.Count)
	}
	if h.Mean <= 0 || h.Max < h.Min {
		t.Errorf("degenerate histogram stats: %+v", h)
	}
	if _, ok := snap.Histograms["pcm.ch0.bank_wait_ns"]; !ok {
		t.Error("bank wait histogram missing")
	}
	// Row hit/miss counters from the devices.
	if snap.Counters["pcm.ch0.row_hits"]+snap.Counters["pcm.ch0.row_misses"] == 0 {
		t.Error("row hit/miss counters missing")
	}
}

// TestMetricsOffByDefault asserts a plain run registers nothing (the
// paper-reproduction path must stay unobserved unless asked).
func TestMetricsOffByDefault(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "table2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() == 0 {
		t.Fatal("no output")
	}
	if strings.Contains(stderr.String(), "metrics snapshot") {
		t.Fatal("metrics written without -metrics flag")
	}
}

// TestTraceRunEndToEnd drives a tracing-only invocation (-exp none) and
// validates every artifact: the Chrome trace JSON must unmarshal, keep
// timestamps monotonic within each (pid,tid) track, and contain only
// complete X / instant / metadata events; the attribution JSON must carry
// a zero residual; the sampler CSV row count must match run length over
// the interval.
func TestTraceRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	attribOut := filepath.Join(dir, "attrib.json")
	sampleOut := filepath.Join(dir, "samples.csv")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-exp", "none", "-requests", "1500", "-seed", "7",
		"-trace-out", traceOut, "-attrib-out", attribOut,
		"-sample-every", "5", "-sample-out", sampleOut,
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}

	// Chrome trace: valid JSON with well-formed events.
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string   `json:"ph"`
			TS   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  int      `json:"pid"`
			TID  int      `json:"tid"`
			Name string   `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", tf.DisplayTimeUnit)
	}
	lastTS := map[[2]int]float64{}
	var xEvents int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			xEvents++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("incomplete X event %q (missing or negative dur)", ev.Name)
			}
		case "i":
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		key := [2]int{ev.PID, ev.TID}
		if ev.TS < lastTS[key] {
			t.Fatalf("track %v: ts %v after %v (not monotonic)", key, ev.TS, lastTS[key])
		}
		lastTS[key] = ev.TS
	}
	if xEvents == 0 {
		t.Fatal("trace has no complete events")
	}

	// Attribution report: requests recorded, partition exact.
	araw, err := os.ReadFile(attribOut)
	if err != nil {
		t.Fatalf("attribution not written: %v", err)
	}
	var att trace.Attribution
	if err := json.Unmarshal(araw, &att); err != nil {
		t.Fatalf("attribution is not valid JSON: %v", err)
	}
	if att.Requests == 0 || att.Reads == 0 {
		t.Fatalf("attribution empty: %+v", att)
	}
	if att.MaxResidualPS != 0 {
		t.Errorf("max residual = %d ps, want 0 (exact partition)", att.MaxResidualPS)
	}
	if !strings.Contains(stdout.String(), "Latency attribution") {
		t.Error("attribution table not printed to stdout")
	}

	// Sampler CSV: row count = floor(exec time / interval). Exec time is
	// reported on stderr as "exec %.1f us"; recompute the expectation from
	// the sample timestamps instead of parsing it: the last row's time_us
	// must be the greatest multiple of 5 covered by the run, and rows must
	// step by exactly the interval.
	craw, err := os.ReadFile(sampleOut)
	if err != nil {
		t.Fatalf("samples not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(craw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("sampler CSV has no rows:\n%s", craw)
	}
	if !strings.HasPrefix(lines[0], "time_us,") {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	for i, line := range lines[1:] {
		wantTime := fmt.Sprintf("%.3f,", float64(i+1)*5)
		if !strings.HasPrefix(line, wantTime) {
			t.Fatalf("row %d = %q, want prefix %q (5us steps)", i+1, line, wantTime)
		}
	}
	// Cross-check the row count against the reported exec time.
	m := regexp.MustCompile(`exec ([0-9.]+) us`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("exec time not reported on stderr: %s", stderr.String())
	}
	execUS, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := int(execUS / 5)
	// The %.1f rounding can push the printed value just past a boundary.
	if got := len(lines) - 1; got != wantRows && got != wantRows-1 && got != wantRows+1 {
		t.Errorf("sampler rows = %d, want ~%d (exec %.1f us / 5 us)", got, wantRows, execUS)
	}
}

// TestTraceOffByDefault asserts a plain experiment run creates no trace
// artifacts and pays no tracing cost path.
func TestTraceOffByDefault(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "table2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, banned := range []string{"trace run", "chrome trace", "Latency attribution"} {
		if strings.Contains(stdout.String(), banned) || strings.Contains(stderr.String(), banned) {
			t.Errorf("tracing output %q present without trace flags", banned)
		}
	}
}

// TestTraceBadMode surfaces a clean error, which main turns into exit
// status 2, for an unknown -trace-mode and for a channel count or span
// limit the traced run cannot use, before anything is written.
func TestTraceBadMode(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-trace-mode", "bogus"}, "bogus"},
		{[]string{"-trace-channels", "3"}, "bad -trace-channels 3"},
		{[]string{"-trace-channels", "0"}, "bad -trace-channels 0"},
		{[]string{"-trace-channels", "-2"}, "bad -trace-channels -2"},
		{[]string{"-trace-limit", "0"}, "bad -trace-limit 0"},
		{[]string{"-trace-limit", "-5"}, "bad -trace-limit -5"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-exp", "none", "-trace-out", "-"}, tc.flags...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want mention of %q", tc.flags, err, tc.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: wrote %d bytes to stdout before failing", tc.flags, stdout.Len())
		}
	}
}

// TestBadNumericFlags: an out-of-range numeric flag is an error, which
// main turns into exit status 2, before any experiment runs — not a
// silent default, a table of zeros or a crash.
func TestBadNumericFlags(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-requests", "0"}, "bad -requests 0"},
		{[]string{"-requests", "-5"}, "bad -requests -5"},
		{[]string{"-workers", "-1"}, "bad -workers -1"},
		{[]string{"-exposure", "-3"}, "bad -exposure -3"},
		{[]string{"-exposure", "0"}, "bad -exposure 0"},
		{[]string{"-exposure", "1.7"}, "bad -exposure 1.7"},
		{[]string{"-exposure", "NaN"}, "bad -exposure NaN"},
		{[]string{"-sample-every", "-1"}, "bad -sample-every -1"},
		{[]string{"-trace-faults", "-0.1"}, "bad -trace-faults -0.1"},
		{[]string{"-trace-faults", "1.5"}, "bad -trace-faults 1.5"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-exp", "table2"}, tc.flags...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want mention of %q", tc.flags, err, tc.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: wrote %d bytes to stdout before failing", tc.flags, stdout.Len())
		}
	}
}

// TestTraceFaultedRun drives a traced run with fault injection on: the
// stderr report must carry the injector and recovery tallies, the trace
// must contain recovery spans, and with the recovery protocol armed no
// request may be silently lost (no degradation report unless quarantined).
func TestTraceFaultedRun(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-exp", "none", "-requests", "1500", "-seed", "7",
		"-trace-out", traceOut, "-trace-faults", "0.005",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	serr := stderr.String()
	for _, want := range []string{"faults:", "recovery:", "0 unaccounted"} {
		if !strings.Contains(serr, want) {
			t.Errorf("stderr missing %q:\n%s", want, serr)
		}
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	for _, span := range []string{"ctr-resync", "retry-backoff"} {
		if !strings.Contains(string(raw), span) {
			t.Errorf("trace missing recovery span %q", span)
		}
	}
}

// TestChromeTraceGolden pins the bytes of -trace-out for three traced runs
// of mcf on obfusmem-auth x2: a plain run, one whose span ring wraps, and
// one with fault injection so recovery instants carry integer args. The
// export is meant to be byte-identical across exporter rewrites; a digest
// change here means the file users load in Perfetto changed.
func TestChromeTraceGolden(t *testing.T) {
	base := []string{"-exp", "none", "-trace-bench", "mcf", "-trace-mode", "obfusmem-auth",
		"-trace-channels", "2", "-requests", "2000", "-seed", "42"}
	for _, tc := range []struct {
		name  string
		extra []string
		want  string
	}{
		{"plain", nil, "3d34e6052522c979ff8a2d571ddf9f2aaeee620c42afb7acc16d0afa2ed5a5e9"},
		{"wrapped", []string{"-trace-limit", "5000"}, "cd6120379475616945d8849aa29828866ede6a02db00a023a95a5a36b7787fb0"},
		{"faults", []string{"-trace-faults", "0.005"}, "bc61915306f90417f125caa328ca4a22ca4cb6829105d7f5a715cbce2577013b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.json")
			args := append(append(slices.Clone(base), tc.extra...), "-trace-out", out)
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != tc.want {
				t.Errorf("trace sha256 = %s, want %s (%d bytes)", got, tc.want, len(raw))
			}
		})
	}
}

// TestAttributionGolden pins the bytes of -attrib-out for the three runs of
// TestChromeTraceGolden. The latency partition is exact and deterministic,
// so a digest change here means a request's breakdown changed.
func TestAttributionGolden(t *testing.T) {
	base := []string{"-exp", "none", "-trace-bench", "mcf", "-trace-mode", "obfusmem-auth",
		"-trace-channels", "2", "-requests", "2000", "-seed", "42"}
	for _, tc := range []struct {
		name  string
		extra []string
		want  string
	}{
		{"plain", nil, "0fdef9893f9b85d03e1d15be4c4d283ba54125afbcadd54377d09a0c32e37555"},
		{"wrapped", []string{"-trace-limit", "5000"}, "0fdef9893f9b85d03e1d15be4c4d283ba54125afbcadd54377d09a0c32e37555"},
		{"faults", []string{"-trace-faults", "0.005"}, "77d047a8b6ca907e300ae1cf7871064da3811bf1f425a9db49890110c7cf2d14"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "attrib.json")
			args := append(append(slices.Clone(base), tc.extra...), "-attrib-out", out)
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != tc.want {
				t.Errorf("attribution sha256 = %s, want %s (%d bytes)", got, tc.want, len(raw))
			}
		})
	}
}

// TestLeakageReportEndToEnd drives -exp leakage with -leakage-out and
// validates the machine-readable report: it must parse, cover every
// registered backend in presentation order, and carry the in-range metric
// fields the security table quotes. The sweep also runs at most once per
// invocation — the table and the JSON quote the same report.
func TestLeakageReportEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "leakage.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "leakage", "-requests", "600", "-leakage-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "leakage") {
		t.Fatalf("leakage table not printed:\n%s", stdout.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep leakage.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	var got []string
	for _, s := range rep.Schemes {
		got = append(got, s.Scheme)
		if s.MIBitsPerRequest < 0 || s.RecoveryAccuracy < 0 || s.RecoveryAccuracy > 1 {
			t.Errorf("%s: out-of-range metrics %+v", s.Scheme, s)
		}
		// The table quotes the report's numbers.
		cell := fmt.Sprintf("%.4f", s.RecoveryAccuracy)
		if !strings.Contains(stdout.String(), cell) {
			t.Errorf("%s: table does not quote recovery %s", s.Scheme, cell)
		}
	}
	for _, want := range []string{"unprotected", "encrypt-only", "obfusmem", "obfusmem-auth", "palermo", "oram"} {
		if !slices.Contains(got, want) {
			t.Errorf("report is missing scheme %q (got %v)", want, got)
		}
	}
	if rep.Requests != 600 || rep.SeedCount < 2 || len(rep.Workloads) < 2 {
		t.Errorf("report panel = requests %d, %d seeds, %v workloads", rep.Requests, rep.SeedCount, rep.Workloads)
	}
}

// TestExpFaultsRuns drives the fault-injection experiment through the CLI.
func TestExpFaultsRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "faults", "-requests", "800"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Fault injection") || !strings.Contains(out, "Quarantines") {
		t.Fatalf("faults table not printed:\n%s", out)
	}
}

// TestUnwritableOutputFailsFast verifies the preflight: an output flag
// pointing into a nonexistent directory must fail before any experiment or
// traced run burns time, and the error must name the offending flag.
func TestUnwritableOutputFailsFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "out.json")
	cases := [][]string{
		{"-exp", "none", "-trace-out", bad},
		{"-exp", "none", "-attrib-out", bad},
		{"-exp", "none", "-metrics", "-metrics-out", bad},
		{"-exp", "none", "-trace-out", "-", "-sample-every", "5", "-sample-out", bad},
		{"-exp", "none", "-leakage-out", bad},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v): expected preflight error, got none", args)
			continue
		}
		flagName := args[len(args)-2] // the flag whose value is the bad path
		if !strings.Contains(err.Error(), flagName) {
			t.Errorf("run(%v): error %q does not name %s", args, err, flagName)
		}
	}
}

// TestPreflightLeavesNoArtifact verifies that probing a writable destination
// does not leave an empty file behind when the path did not exist.
func TestPreflightLeavesNoArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.json")
	if err := checkWritable("trace-out", path); err != nil {
		t.Fatalf("checkWritable(%s): %v", path, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("preflight left %s behind (stat err: %v)", path, err)
	}
}

// TestPreflightKeepsExistingFile verifies the probe does not truncate or
// remove a pre-existing destination file.
func TestPreflightKeepsExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "existing.json")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkWritable("metrics-out", path); err != nil {
		t.Fatalf("checkWritable(%s): %v", path, err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "precious" {
		t.Errorf("preflight disturbed existing file: content %q, err %v", got, err)
	}
}

// TestResultsFullGolden regenerates `obfsim -exp all -requests 5000` in
// process and requires it to equal the committed results_full.txt byte for
// byte: a change that moves any reproduced number, or breaks determinism,
// fails here. It takes about a second, so -short skips it.
func TestResultsFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation; skipped under -short")
	}
	want, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-requests", "5000"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("output differs from results_full.txt at line %d:\n got: %q\nwant: %q", i+1, got[i], exp[i])
		}
	}
	t.Fatalf("output has %d lines, results_full.txt has %d", len(got), len(exp))
}
