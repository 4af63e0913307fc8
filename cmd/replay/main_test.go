package main

import (
	"bytes"
	"strings"
	"testing"

	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// milcTrace is the CSV `tracegen -bench milc -n 500 -seed 3` prints (its
// own test pins the equality).
func milcTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, workload.Generate(p, 500, 3)); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestReplayAllSchemes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", "-", "-protection", "all"}, milcTrace(t), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rows := strings.Split(strings.TrimSpace(stdout.String()), "\n")[1:]
	registered := system.BackendNames()
	if len(rows) != len(registered) {
		t.Fatalf("%d rows for %d registered schemes:\n%s", len(rows), len(registered), stdout.String())
	}
	seen := make(map[string]bool)
	for _, r := range rows {
		seen[strings.Fields(r)[0]] = true
	}
	for _, n := range registered {
		if !seen[n] {
			t.Errorf("no row for registered scheme %q", n)
		}
	}
	first := strings.Fields(rows[0])
	if first[0] != "unprotected" || first[len(first)-1] != "0.0%" {
		t.Errorf("first row %q, want unprotected at 0.0%%", rows[0])
	}
}

func TestReplayUnknownProtection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", "-", "-protection", "obfusmem+auth"}, milcTrace(t), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, n := range system.BackendNames() {
		if !strings.Contains(stderr.String(), n) {
			t.Errorf("error %q does not list registered scheme %q", stderr.String(), n)
		}
	}
}
