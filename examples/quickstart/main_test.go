package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun is the example's smoke test: it exits 0 and prints one row per protection level with ObfusMem+Auth ahead of ORAM.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{
		"unprotected         ",
		"obfusmem-auth       ",
		"oram                ",
		"ObfusMem+Auth is 12.2x faster than the Path ORAM model on mcf",
		", 0 extra PCM writes",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
