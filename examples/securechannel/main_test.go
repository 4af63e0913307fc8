package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun is the example's smoke test: it exits 0 and shows each boot scenario's outcome and the bus MAC catching every command attack.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{
		"naive, boot-time MITM:",
		"ESTABLISHED but COMPROMISED",
		"trusted integrator, boot-time MITM:                        HALTED",
		"modify         mounted  551, detected  551",
		"replay         mounted  551, detected  551",
		"corrupt-data   mounted  551, detected    0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
