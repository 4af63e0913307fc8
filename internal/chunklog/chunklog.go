// Package chunklog provides Log, the append-only record log behind the
// simulator's long-running instruments: the bus tap's packet records, the
// leakage probe's issued-request schedule and the trace recorder's
// attribution samples.
//
// A slice grown by append copies itself each time it fills and, past a few
// hundred elements, grows by about 1.25×, so a long run allocates several
// times what it ends up holding. A Log stores its records in fixed-size
// chunks instead: a chunk is allocated when the previous one fills and is
// never copied or resized, so a log of n records has allocated its n
// records plus at most one chunk of slack.
//
// Readers walk the chunks in append order:
//
//	for c := range l.Chunks() {
//		for _, r := range l.Chunk(c) {
//			...
//		}
//	}
package chunklog

// ChunkLen is the number of records per chunk: 40 KiB of 40-byte tap
// records, so a long run's log allocates a chunk per thousand records and a
// short one pays for a single chunk.
const ChunkLen = 1024

// Log is an append-only sequence of records in fixed-size chunks. The zero
// value is an empty log and allocates nothing until its first Append.
type Log[T any] struct {
	chunks []*[ChunkLen]T // all full except the last
	n      int
}

// Append adds v at the end of the log.
func (l *Log[T]) Append(v T) {
	i := l.n % ChunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([ChunkLen]T))
	}
	l.chunks[len(l.chunks)-1][i] = v
	l.n++
}

// Len returns the number of records appended.
func (l *Log[T]) Len() int { return l.n }

// Chunks returns the number of chunks the log holds.
func (l *Log[T]) Chunks() int { return len(l.chunks) }

// Chunk returns chunk c's records in append order: ChunkLen of them for
// every chunk but the last, which holds the rest. The slice aliases the
// log; callers only read it.
func (l *Log[T]) Chunk(c int) []T {
	if c == len(l.chunks)-1 {
		return l.chunks[c][:l.n-c*ChunkLen]
	}
	return l.chunks[c][:]
}
