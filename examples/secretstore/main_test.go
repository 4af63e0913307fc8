package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun is the example's smoke test: it exits 0 and shows the round trip verifying and the Merkle tree catching the tampered write.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{
		"read back: \"carol: diagnosis=confidential",
		"(verified=true)",
		"bus MAC alarms: 0",
		"verified=false (Merkle tree caught it)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
