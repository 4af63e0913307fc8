package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun is the example's smoke test: it exits 0 and shows the ORAM leaf trace and the ObfusMem observer learning nothing.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{
		"write amplification:  44x per access",
		"stash: max 4, mean 0.0, overflows 0",
		"ciphertext repeats:     0.0000",
		"0 extra PCM writes",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
