package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	p, _ := ByName("cactus")
	reqs := Generate(p, 500, 3)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("got %d requests back, want %d", len(back), len(reqs))
	}
	for i := range reqs {
		if back[i].Addr != reqs[i].Addr || back[i].Write != reqs[i].Write {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, back[i], reqs[i])
		}
		// Gaps survive to sub-ns precision (written with 3 decimals).
		d := back[i].Gap - reqs[i].Gap
		if d < -1000 || d > 1000 {
			t.Fatalf("request %d gap drifted: %v vs %v", i, back[i].Gap, reqs[i].Gap)
		}
	}
}

func TestReadTraceFormats(t *testing.T) {
	in := "gap_ns,addr,write\n10.5,0x1000,0\n# comment\n\n20,4096,1\n"
	reqs, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if reqs[0].Addr != 0x1000 || reqs[0].Write {
		t.Fatalf("req 0 = %+v", reqs[0])
	}
	if reqs[1].Addr != 4096 || !reqs[1].Write {
		t.Fatalf("req 1 = %+v", reqs[1])
	}
}

func TestReadTraceErrors(t *testing.T) {
	bad := []string{
		"gap_ns,addr,write\nx,0x10,0\n",
		"gap_ns,addr,write\n1.0,zz,0\n",
		"gap_ns,addr,write\n1.0,0x10,2\n",
		"gap_ns,addr,write\n1.0,0x10\n",
		"gap_ns,addr,write\n-5,0x10,0\n",
	}
	for i, in := range bad {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad trace accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("gems")
	a := Generate(p, 100, 9)
	b := Generate(p, 100, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Generate not deterministic")
		}
	}
}

// TestReadTraceHeaderAfterComments is the regression test for the header
// detection fix: tracegen-style files that open with comments or blank
// lines before the "gap_ns,addr,write" header must parse, and a header
// line must never be skipped once data has started.
func TestReadTraceHeaderAfterComments(t *testing.T) {
	in := "# produced by cmd/tracegen\n# bench: milc\n\ngap_ns,addr,write\n10.5,0x1000,0\n20,4096,1\n"
	reqs, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("trace with leading comments rejected: %v", err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	if reqs[0].Addr != 0x1000 || reqs[0].Write {
		t.Fatalf("req 0 = %+v", reqs[0])
	}

	// Headerless traces still parse (the header is optional either way).
	reqs, err = ReadTrace(strings.NewReader("# comment only\n1.0,0x40,0\n"))
	if err != nil || len(reqs) != 1 {
		t.Fatalf("headerless trace: reqs=%d err=%v", len(reqs), err)
	}

	// A "gap_ns" line after the first data row is data, not a header, and
	// must be rejected as malformed rather than silently skipped.
	if _, err := ReadTrace(strings.NewReader("1.0,0x40,0\ngap_ns,addr,write\n")); err == nil {
		t.Error("mid-file header line silently skipped")
	}
}

// TestReadTraceBadGapNoPanic pins the TryNanos integration: malformed gaps
// (negative, NaN, absurd) surface as errors with line numbers, never as
// panics from sim.Nanos.
func TestReadTraceBadGapNoPanic(t *testing.T) {
	bad := []string{
		"gap_ns,addr,write\nNaN,0x10,0\n",
		"gap_ns,addr,write\n-0.5,0x10,0\n",
		"gap_ns,addr,write\n1e300,0x10,0\n",
	}
	for i, in := range bad {
		reqs, err := ReadTrace(strings.NewReader(in))
		if err == nil {
			t.Errorf("case %d: malformed gap accepted: %+v", i, reqs)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("case %d: error lacks line number: %v", i, err)
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace parser. It must never
// panic, and any trace it accepts must come back unchanged from a
// WriteTrace/ReadTrace round trip. The seed corpus under testdata/fuzz
// replays in every `go test`.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, reqs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(reqs) {
			t.Fatalf("round trip returned %d requests, want %d", len(again), len(reqs))
		}
		for i := range reqs {
			if again[i] != reqs[i] {
				t.Fatalf("request %d changed in the round trip: gap %dps %#x %v -> gap %dps %#x %v", i,
					int64(reqs[i].Gap), reqs[i].Addr, reqs[i].Write, int64(again[i].Gap), again[i].Addr, again[i].Write)
			}
		}
	})
}
