package main

import (
	"bytes"
	"strings"
	"testing"

	"obfusmem/internal/workload"
)

func TestListPrintsEveryProfile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rows := strings.Split(strings.TrimSpace(stdout.String()), "\n")[1:]
	profiles := workload.SPEC2006()
	if len(rows) != len(profiles) {
		t.Fatalf("-list printed %d profiles, want %d:\n%s", len(rows), len(profiles), stdout.String())
	}
	for i, p := range profiles {
		if f := strings.Fields(rows[i]); len(f) == 0 || f[0] != p.Name {
			t.Errorf("row %d = %q, want profile %s", i, rows[i], p.Name)
		}
	}
}

// TestTraceIsTheLibraryTrace pins tracegen's CSV to workload.Generate and
// workload.WriteTrace, which is what cmd/replay's test feeds replay.
func TestTraceIsTheLibraryTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "milc", "-n", "500", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := workload.WriteTrace(&want, workload.Generate(p, 500, 3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatal("tracegen output differs from workload.WriteTrace(workload.Generate(...))")
	}
	if !strings.HasPrefix(stderr.String(), "milc: 500 requests") {
		t.Errorf("summary line = %q", stderr.String())
	}
}

// TestBadCountExits2: a non-positive -n is an error, not a panic (-3)
// or NaN statistics (0).
func TestBadCountExits2(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-n", n}, &stdout, &stderr); code != 2 {
			t.Errorf("-n %s: exit %d, want 2", n, code)
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), "bad -n "+n) {
			t.Errorf("-n %s: stdout %q, stderr %q", n, stdout.String(), stderr.String())
		}
	}
}

func TestUnknownBenchmarkExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "no-such-profile"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
