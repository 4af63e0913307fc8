package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The journal is the campaign's write-ahead record: one line per committed
// event, appended and fsync'd before the event counts. The framing is
// deliberately dumb — a text line
//
//	obfj1 <crc32c-hex8> <payload-json>\n
//
// so a human can read a journal with less, and the failure modes partition
// cleanly:
//
//   - A crash mid-append leaves a final line without a terminating
//     newline (or an empty tail). Every byte before it was fsync'd by an
//     earlier commit, so the loader drops exactly the torn tail record and
//     resumes from the last durable state. The file is truncated back to
//     the durable prefix before new appends.
//   - Any complete line that fails its CRC (bit rot, concurrent writers,
//     hand editing) is a hard, clearly-attributed error: silently skipping
//     a corrupt middle record would break the bit-identical-merge
//     contract, so the journal refuses to load instead.
//
// Castagnoli CRC32 is used for the same reason storage systems use it:
// cheap, and the Go runtime hardware-accelerates it.

// journalMagic versions the record framing.
const journalMagic = "obfj1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one journal entry. Type discriminates; unused fields stay
// empty and are omitted from the JSON.
type Record struct {
	// Type is one of "begin", "cell", or "shutdown".
	Type string `json:"type"`

	// begin: campaign identity. A journal may hold several begin records
	// (one per run segment); all must carry the same manifest hash.
	Name         string `json:"name,omitempty"`
	ManifestHash string `json:"manifestHash,omitempty"`
	Cells        int    `json:"cells,omitempty"`  // grid size (diagnostic)
	Unique       int    `json:"unique,omitempty"` // deduplicated cell count

	// cell: one committed cell outcome. Journals written before cells ran
	// exactly once also carry an "attempts" key, which decoding ignores.
	Key    string      `json:"key,omitempty"`
	Status string      `json:"status,omitempty"` // "done" | "failed"
	Result *CellResult `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`

	// shutdown: a clean stop (campaign complete or drained on SIGINT).
	Reason    string `json:"reason,omitempty"` // "complete" | "interrupt"
	Committed int    `json:"committed,omitempty"`
}

// CorruptError reports a journal record whose CRC or framing check failed.
// Distinct from a torn tail: corruption in the durable prefix is never
// repaired automatically.
type CorruptError struct {
	Path   string
	Line   int // 1-based record number
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("campaign journal %s: record %d corrupt: %s", e.Path, e.Line, e.Detail)
}

// Journal is an open append-only journal file.
type Journal struct {
	path string
	f    *os.File
	// records is the durable state loaded at open (excluding any dropped
	// torn tail).
	records []Record
	// droppedTail reports whether open found and discarded a torn final
	// record (evidence of a crash mid-append).
	droppedTail bool
	bytes       int64
}

// encodeRecord renders the framed line for r.
func encodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("campaign journal: encode: %w", err)
	}
	line := fmt.Sprintf("%s %08x %s\n", journalMagic, crc32.Checksum(payload, crcTable), payload)
	return []byte(line), nil
}

// decodeLine parses and CRC-checks one complete journal line.
func decodeLine(line []byte) (Record, error) {
	rest, ok := bytes.CutPrefix(line, []byte(journalMagic+" "))
	if !ok {
		return Record{}, fmt.Errorf("bad magic (want %q)", journalMagic)
	}
	if len(rest) < 9 || rest[8] != ' ' {
		return Record{}, fmt.Errorf("short CRC field")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &want); err != nil {
		return Record{}, fmt.Errorf("unparsable CRC: %v", err)
	}
	payload := rest[9:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return Record{}, fmt.Errorf("CRC mismatch: stored %08x, computed %08x", want, got)
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("payload not valid JSON despite matching CRC: %v", err)
	}
	return r, nil
}

// OpenJournal opens (creating if absent) the journal at path, loads its
// durable records, drops a torn tail record if the last append was cut by
// a crash, and truncates the file back to the durable prefix so subsequent
// appends extend clean state. Corruption anywhere before the tail returns
// a *CorruptError and no Journal.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return nil, fmt.Errorf("campaign journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("campaign journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	if err := j.load(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load reads the durable records and positions the write offset.
func (j *Journal) load() error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("campaign journal %s: %w", j.path, err)
	}
	br := bufio.NewReader(j.f)
	var off int64
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			// raw holds a torn tail (crash mid-append) or nothing. Either
			// way the durable prefix ends at off.
			j.droppedTail = len(raw) > 0
			break
		}
		if err != nil {
			return fmt.Errorf("campaign journal %s: %w", j.path, err)
		}
		line++
		rec, derr := decodeLine(bytes.TrimSuffix(raw, []byte("\n")))
		if derr != nil {
			return &CorruptError{Path: j.path, Line: line, Detail: derr.Error()}
		}
		j.records = append(j.records, rec)
		off += int64(len(raw))
	}
	// Truncate away the torn tail so appends extend durable state only.
	if err := j.f.Truncate(off); err != nil {
		return fmt.Errorf("campaign journal %s: truncate torn tail: %w", j.path, err)
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("campaign journal %s: %w", j.path, err)
	}
	j.bytes = off
	return nil
}

// Records returns the durable records loaded at open plus everything
// appended since (the in-memory view mirrors the file).
func (j *Journal) Records() []Record { return j.records }

// DroppedTail reports whether open discarded a torn final record.
func (j *Journal) DroppedTail() bool { return j.droppedTail }

// Bytes returns the current journal size in bytes.
func (j *Journal) Bytes() int64 { return j.bytes }

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Append commits one record: encode, write, fsync, then account. The
// record is durable when Append returns — a crash immediately after may
// tear the *next* record, never this one.
func (j *Journal) Append(r Record) error {
	line, err := encodeRecord(r)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("campaign journal %s: append: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign journal %s: fsync: %w", j.path, err)
	}
	j.records = append(j.records, r)
	j.bytes += int64(len(line))
	return nil
}

// Close closes the journal file (records stay readable).
func (j *Journal) Close() error { return j.f.Close() }

// journalState is the digest of a loaded journal a resume plans from.
type journalState struct {
	manifestHash string
	// outcome per cell key: the FIRST committed record wins; later
	// duplicates (possible if two run segments raced in a pathological
	// operator setup) are ignored rather than allowed to flip results.
	byKey map[string]Record
	// committed counts cell records honoured (not ignored duplicates).
	committed int
}

// digest folds the record stream into resumable state, validating that
// every begin record matches wantHash. An empty journal digests to an
// empty state.
func digest(records []Record, path, wantHash string) (journalState, error) {
	st := journalState{byKey: make(map[string]Record)}
	for i, r := range records {
		switch r.Type {
		case "begin":
			if st.manifestHash == "" {
				st.manifestHash = r.ManifestHash
			}
			if r.ManifestHash != wantHash {
				return st, fmt.Errorf(
					"campaign journal %s: record %d: manifest hash %s does not match this manifest (%s): refusing to resume a different campaign into this journal",
					path, i+1, r.ManifestHash, wantHash)
			}
		case "cell":
			if r.Key == "" || (r.Status != statusDone && r.Status != statusFailed) {
				return st, &CorruptError{Path: path, Line: i + 1, Detail: fmt.Sprintf("cell record with key %q status %q", r.Key, r.Status)}
			}
			if _, dup := st.byKey[r.Key]; !dup {
				st.byKey[r.Key] = r
				st.committed++
			}
		case "shutdown":
			// informational only
		default:
			return st, &CorruptError{Path: path, Line: i + 1, Detail: fmt.Sprintf("unknown record type %q", r.Type)}
		}
	}
	return st, nil
}
