package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), JournalFile)
}

// TestJournalRoundTrip pins the basic append/load contract.
func TestJournalRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: "begin", Name: "demo", ManifestHash: "abc", Cells: 4, Unique: 3},
		{Type: "cell", Key: "k1", Status: statusDone, Result: &CellResult{Scheme: "unprotected", ExecPS: 42}},
		{Type: "cell", Key: "k2", Status: statusFailed, Error: "boom"},
		{Type: "shutdown", Reason: "interrupt", Committed: 2},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Records()
	if len(got) != len(recs) {
		t.Fatalf("reloaded %d records, want %d", len(got), len(recs))
	}
	if got[1].Result == nil || got[1].Result.ExecPS != 42 {
		t.Errorf("cell result did not round-trip: %+v", got[1])
	}
	if got[2].Error != "boom" {
		t.Errorf("failed-cell record did not round-trip: %+v", got[2])
	}
	if j2.DroppedTail() {
		t.Error("clean journal reported a torn tail")
	}
}

// TestJournalTornTailDropped simulates a crash mid-append: the final
// record loses its tail. The loader must drop exactly that record, report
// it, truncate the file back to durable state, and allow clean appends.
func TestJournalTornTailDropped(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []Record{
		{Type: "begin", ManifestHash: "h"},
		{Type: "cell", Key: "k1", Status: statusDone},
		{Type: "cell", Key: "k2", Status: statusDone},
	} {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the final record.
	for cut := len(raw) - 1; cut > len(raw)-10; cut-- {
		if err := os.WriteFile(path, raw[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: torn tail must load cleanly, got %v", cut, err)
		}
		if !j2.DroppedTail() {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		if n := len(j2.Records()); n != 2 {
			t.Fatalf("cut=%d: %d records survived, want the 2 durable ones", cut, n)
		}
		// Appending after a torn tail must produce a fully valid journal.
		if err := j2.Append(Record{Type: "cell", Key: "k2", Status: statusDone}); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: journal invalid after post-tear append: %v", cut, err)
		}
		if n := len(j3.Records()); n != 3 {
			t.Fatalf("cut=%d: %d records after repair append, want 3", cut, n)
		}
		if j3.DroppedTail() {
			t.Fatalf("cut=%d: repaired journal still reports a torn tail", cut)
		}
		j3.Close()
		// Restore for the next cut point.
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCorruptionRejected flips a payload byte in a *middle* record:
// the CRC must catch it and the journal must refuse to load with a clear,
// attributed error — silently skipping would break bit-identical merging.
func TestJournalCorruptionRejected(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{
		{Type: "begin", ManifestHash: "h"},
		{Type: "cell", Key: "k1", Status: statusDone},
		{Type: "shutdown", Reason: "complete"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Flip a byte inside the second record's JSON payload.
	line := []byte(lines[1])
	line[len(line)-5] ^= 0x20
	lines[1] = string(line)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o666); err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournal(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt middle record loaded without error (err=%v)", err)
	}
	if ce.Line != 2 || !strings.Contains(ce.Detail, "CRC mismatch") {
		t.Errorf("corruption not attributed: %+v", ce)
	}
	if !strings.Contains(ce.Error(), path) {
		t.Errorf("error text %q does not name the journal file", ce.Error())
	}
}

// TestJournalBadMagicRejected: a record line that isn't ours at all.
func TestJournalBadMagicRejected(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte("not a journal line\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("foreign journal content loaded without error (err=%v)", err)
	}
}

// TestDigestRejectsForeignManifest: resuming a journal created by a
// different manifest must fail loudly.
func TestDigestRejectsForeignManifest(t *testing.T) {
	recs := []Record{{Type: "begin", ManifestHash: "old"}}
	if _, err := digest(recs, "j", "new"); err == nil ||
		!strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("digest accepted a foreign manifest hash: %v", err)
	}
}

// TestDigestFirstCommitWins: duplicate cell records cannot flip an
// already-committed outcome.
func TestDigestFirstCommitWins(t *testing.T) {
	recs := []Record{
		{Type: "begin", ManifestHash: "h"},
		{Type: "cell", Key: "k", Status: statusDone},
		{Type: "cell", Key: "k", Status: statusFailed, Error: "late duplicate"},
	}
	st, err := digest(recs, "j", "h")
	if err != nil {
		t.Fatal(err)
	}
	if st.committed != 1 || st.byKey["k"].Status != statusDone {
		t.Fatalf("later duplicate overrode the first commit: %+v", st.byKey["k"])
	}
}
