package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseManifest: the decoder never panics, and every manifest it
// accepts also passes Validate, before and after defaulting.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseManifest(raw)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		if err := m.Defaulted().Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate once defaulted: %v", err)
		}
	})
}

// FuzzJournalLoad: OpenJournal on arbitrary bytes never panics. A torn
// final line (bytes after the last newline) is dropped and truncated away,
// and any complete line that fails its framing or CRC check makes the load
// fail with *CorruptError.
func FuzzJournalLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), JournalFile) // iterations run one at a time
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		durable := raw[:bytes.LastIndexByte(raw, '\n')+1]
		lines := bytes.SplitAfter(durable, []byte("\n"))
		lines = lines[:len(lines)-1] // SplitAfter leaves an empty final piece
		corrupt := false
		for _, l := range lines {
			if _, err := decodeLine(bytes.TrimSuffix(l, []byte("\n"))); err != nil {
				corrupt = true
			}
		}

		j, err := OpenJournal(path)
		if corrupt {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("complete corrupt line loaded with err=%v, want *CorruptError", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-framed journal refused: %v", err)
		}
		defer j.Close()
		if got, want := len(j.Records()), len(lines); got != want {
			t.Fatalf("loaded %d records from %d complete lines", got, want)
		}
		if torn := len(durable) < len(raw); j.DroppedTail() != torn {
			t.Fatalf("DroppedTail = %v, want %v", j.DroppedTail(), torn)
		}
		if j.Bytes() != int64(len(durable)) {
			t.Fatalf("journal positioned at %d, want the durable prefix %d", j.Bytes(), len(durable))
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, durable) {
			t.Fatalf("file not truncated to its durable prefix: %d bytes, want %d", len(onDisk), len(durable))
		}
	})
}
