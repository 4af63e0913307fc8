package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// capture runs the driver with stdout/stderr redirected to temp files and
// returns the exit code plus both streams.
func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code = run(outF, errF, args)
	outB, _ := os.ReadFile(outF.Name())
	errB, _ := os.ReadFile(errF.Name())
	return code, string(outB), string(errB)
}

func TestListNamesAllAnalyzers(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"determinism"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
}

// TestListIsSorted requires -list output in deterministic (alphabetical)
// order regardless of suite registration order.
func TestListIsSorted(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list output not sorted: %v", names)
	}
}

// violation is a scratch package whose two functions each collect map keys
// in iteration order, a determinism finding apiece.
const violation = `package sim

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Values(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`

// TestSeededViolationFails builds a scratch module containing a determinism
// violation and requires the driver to find it and exit 1 — the contract the
// CI lint job depends on.
func TestSeededViolationFails(t *testing.T) {
	seedModule(t, violation)
	code, out, stderr := capture(t, "./...")
	if code != 1 {
		t.Fatalf("expected exit 1 on seeded violation, got %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "determinism") || !strings.Contains(out, "no total-order sort") {
		t.Errorf("finding not reported as a determinism map-order violation:\n%s", out)
	}
}

// seedModule writes a one-package scratch module and chdirs into it.
func seedModule(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := filepath.Join(dir, "internal", "sim")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "sim.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}

// TestJSONOutput requires -json to emit the documented machine-readable
// shape, sorted like the text output, with the pass and rule split out.
func TestJSONOutput(t *testing.T) {
	seedModule(t, violation)
	code, out, stderr := capture(t, "-json", "./...")
	if code != 1 {
		t.Fatalf("expected exit 1, got %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Pass    string `json:"pass"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if len(findings) != 2 {
		t.Fatalf("expected 2 findings, got %d:\n%s", len(findings), out)
	}
	for _, f := range findings {
		if f.Pass != "determinism" || f.Rule == "" || f.File == "" || f.Line == 0 || f.Col == 0 || !strings.Contains(f.Message, "no total-order sort") {
			t.Errorf("finding missing fields: %+v", f)
		}
	}
	if findings[0].Line >= findings[1].Line {
		t.Errorf("findings not sorted by position: lines %d, %d", findings[0].Line, findings[1].Line)
	}
}

// TestJSONCleanTree requires -json on a clean package to emit an empty array
// and exit 0 — consumers should never have to special-case "no output".
func TestJSONCleanTree(t *testing.T) {
	seedModule(t, `package sim

func x() int { return 1 }
`)
	code, out, stderr := capture(t, "-json", "./...")
	if code != 0 {
		t.Fatalf("expected clean exit, got %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	var findings []any
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if len(findings) != 0 {
		t.Fatalf("expected empty findings array:\n%s", out)
	}
}
