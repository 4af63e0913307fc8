package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun is the example's smoke test: it exits 0 and shows fixed-address dummies never writing PCM.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{
		"random-address     exec",
		"original-address   exec",
		"fixed-address      exec  537.255us | dummy PCM writes      0 reads      0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
