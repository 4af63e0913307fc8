package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the driver and returns the exit code plus both streams.
func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(&out, &errb, args)
	return code, out.String(), errb.String()
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

// TestFindingsInPositionOrder requires one file:line:col: determinism:
// message line per finding, sorted by position.
func TestFindingsInPositionOrder(t *testing.T) {
	seedModule(t, violation)
	code, out, stderr := capture(t, "./...")
	if code != 1 {
		t.Fatalf("expected exit 1, got %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 findings, got %d:\n%s", len(lines), out)
	}
	for i, want := range []string{"sim.go:6:3: determinism: ", "sim.go:14:3: determinism: "} {
		if !strings.Contains(lines[i], want) || !strings.Contains(lines[i], "no total-order sort") {
			t.Errorf("finding %d = %q, want it to contain %q and the map-order message", i, lines[i], want)
		}
	}
}

// TestCleanTree requires a clean package to print no findings and exit 0.
func TestCleanTree(t *testing.T) {
	seedModule(t, `package sim

func x() int { return 1 }
`)
	code, out, stderr := capture(t, "./...")
	if code != 0 || out != "" {
		t.Fatalf("expected clean exit with no findings, got %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(stderr, "1 packages clean") {
		t.Errorf("stderr %q does not report the clean package count", stderr)
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
