package chunklog

import "testing"

// TestLogOrderAcrossChunks appends past several chunk boundaries and checks
// that the chunk walk returns every record in append order, that Len
// counts them, and that the log never holds more than one chunk of slack.
func TestLogOrderAcrossChunks(t *testing.T) {
	var l Log[int]
	for _, n := range []int{1, ChunkLen - 1, ChunkLen, ChunkLen + 1, 3*ChunkLen + 17} {
		for l.Len() < n {
			l.Append(l.Len())
		}
		if want := (n + ChunkLen - 1) / ChunkLen; l.Chunks() != want {
			t.Fatalf("%d records in %d chunks, want %d (at most one chunk of slack)", n, l.Chunks(), want)
		}
		next := 0
		for c := range l.Chunks() {
			chunk := l.Chunk(c)
			if c < l.Chunks()-1 && len(chunk) != ChunkLen {
				t.Fatalf("chunk %d of %d holds %d records, want a full chunk", c, l.Chunks(), len(chunk))
			}
			for _, v := range chunk {
				if v != next {
					t.Fatalf("record %d reads %d", next, v)
				}
				next++
			}
		}
		if next != n {
			t.Fatalf("chunk walk read %d records, Len is %d", next, n)
		}
	}
}

// TestLogAllocatesPerChunk checks that an empty log holds no chunk and
// that appends allocate once per chunk, never copying a full one.
func TestLogAllocatesPerChunk(t *testing.T) {
	var l Log[[40]byte]
	if l.Chunks() != 0 || l.Len() != 0 {
		t.Fatalf("an empty log holds %d chunks and %d records", l.Chunks(), l.Len())
	}
	allocs := testing.AllocsPerRun(1, func() {
		l = Log[[40]byte]{}
		for range 8 * ChunkLen {
			l.Append([40]byte{1})
		}
	})
	// 8 chunks plus the growth of the 8-entry chunk list: 1, 2, 4, 8.
	if allocs > 12 {
		t.Fatalf("%d appends made %v allocations, want at most 12 (one per chunk plus the chunk list)", 8*ChunkLen, allocs)
	}
}
