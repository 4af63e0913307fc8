package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestSmallRun drives the default (non-sweep) report on a small tree and
// checks each section is present and self-consistent.
func TestSmallRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-levels", "6", "-blocks", "100", "-accesses", "500"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Path ORAM L=6 Z=4: 100 blocks in 508 slots",
		"accesses: 500, path length 28 blocks",
		"write amplification 28x",
		"(100.0% cum)",
		"leaf trace: 500 accesses over",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var again bytes.Buffer
	run(args, &again, &stderr)
	if again.String() != out {
		t.Error("same seed produced a different report")
	}
}

// TestSmallSweep checks the stash-capacity sweep prints one row per
// capacity and that overflows never grow with a larger stash.
func TestSmallSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-sweep", "-levels", "6", "-blocks", "100", "-accesses", "300"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(stdout.String(), "\n")
	caps := []int{0, 2, 5, 10, 20, 50, 100}
	if len(lines) < 2+len(caps) {
		t.Fatalf("sweep printed %d lines:\n%s", len(lines), stdout.String())
	}
	prev := -1
	for i, c := range caps {
		var capacity, overflows int
		var rate string
		row := lines[2+i]
		if _, err := fmt.Sscan(row, &capacity, &overflows, &rate); err != nil || capacity != c {
			t.Fatalf("row %d = %q, want capacity %d", i, row, c)
		}
		if prev >= 0 && overflows > prev {
			t.Errorf("capacity %d overflows %d > %d at a smaller stash", capacity, overflows, prev)
		}
		prev = overflows
	}
}

func TestBadFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("bad flag wrote to stdout: %q", stdout.String())
	}
}
