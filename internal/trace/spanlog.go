package trace

import (
	"encoding/binary"
	"math"

	"obfusmem/internal/sim"
)

// The span log keeps each retained span as a self-contained variable-length
// encoding, packed into fixed-size byte chunks behind a length byte:
//
//	length 1 byte: the bytes that follow, up to maxSpanBytes
//	head   1 byte: nargs (bits 0-2), instant (bit 3), category (bits 4-7;
//	       catEscape means the category's raw byte follows)
//	pid    uvarint of the pid's 32 bits
//	tid    uvarint sym
//	name   uvarint sym
//	begin  uvarint of the begin time's bits
//	dur    uvarint of end-begin, absent for an instant (which ends at begin)
//	req    uvarint request id
//	args   per arg: uvarint key sym<<3 | kind, then the value: 8 bytes
//	       little-endian for a float, else a uvarint (a Str value's strs sym)
//
// A span is encoded straight into the newest chunk, which takes spans
// while it has room for the longest, so a span never straddles two chunks.
// No span depends on another, so evicting the oldest is a skip over its
// length, and a chunk whose spans have all been evicted is recycled for the
// newest spans. The fields the export's first pass reads (track and event
// head) come first, so it decodes no more. Each chunk also keeps the least
// begin time of the spans starting in each of its 1 KiB blocks, the bounds
// the export's time order is drawn from.

// chunkBytes is the span log's allocation unit: about 3000 spans of a
// traced ObfusMem run, so a traced run of thousands of requests allocates
// a dozen chunks, not one per few hundred spans. Chunks are allocated as
// the log grows and recycled once evicted, so retention costs no copying
// and a short run never pays for the whole limit.
const chunkBytes = 64 << 10

// maxSpanBytes bounds one encoded span, its length byte excluded: the head
// and an escaped category byte, pid, tid and name of up to 5 bytes each,
// begin, duration and request id of up to 10, and maxArgs args of a 5-byte
// key and a 10-byte value. It fits the length byte.
const maxSpanBytes = 2 + 3*5 + 3*10 + maxArgs*(5+10)

// catEscape in a span's head marks a category outside [0, catEscape),
// whose byte follows the head.
const catEscape = 15

// record is one span decoded from the log: the form the export, Spans and
// the encoder work on. Strings are syms in the recorder's intern tables.
type record struct {
	req        uint64
	begin, end sim.Time
	pid        int32
	tid, name  sym
	cat        Category
	phase      Phase
	nargs      uint8
	kinds      [maxArgs]argKind
	keys       [maxArgs]sym
	vals       [maxArgs]uint64 // Arg.num, or the strs sym of an argStr value
}

// appendHead appends a span's encoding up to its args; nargs args must
// follow, each from appendArg.
func appendHead(b []byte, req uint64, begin, end sim.Time, pid int32, tid, name sym, cat Category, ph Phase, nargs int) []byte {
	h := byte(nargs)
	if ph == PhaseInstant {
		h |= 8
	}
	if cat >= 0 && cat < catEscape {
		b = append(b, h|byte(cat)<<4)
	} else {
		b = append(b, h|catEscape<<4, byte(cat))
	}
	b = binary.AppendUvarint(b, uint64(uint32(pid)))
	b = binary.AppendUvarint(b, uint64(tid))
	b = binary.AppendUvarint(b, uint64(name))
	b = binary.AppendUvarint(b, uint64(begin))
	if ph != PhaseInstant {
		b = binary.AppendUvarint(b, uint64(end-begin))
	}
	return binary.AppendUvarint(b, req)
}

// appendArg appends one arg: its key and kind, then its value.
func appendArg(b []byte, key sym, kind argKind, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(key)<<3|uint64(kind))
	if kind == argFloat {
		return binary.LittleEndian.AppendUint64(b, v)
	}
	return binary.AppendUvarint(b, v)
}

// decodeTrack reads the head, pid, tid and name of the span b holds into s
// and returns a reader at its begin time.
func (s *record) decodeTrack(b []byte) reader {
	d := reader{b: b, i: 1}
	s.decodeHeadByte(b[0])
	if s.cat == catEscape {
		s.cat, d.i = Category(b[1]), 2
	}
	s.pid = int32(uint32(d.uvarint()))
	s.tid = sym(d.uvarint())
	s.name = sym(d.uvarint())
	return d
}

// decodeHeadByte reads a span's head byte: its arg count, phase and
// category, catEscape when the category's byte follows.
func (s *record) decodeHeadByte(h byte) {
	s.nargs, s.phase, s.cat = h&7, PhaseSpan, Category(h>>4)
	if h&8 != 0 {
		s.phase = PhaseInstant
	}
}

// decode reads the span b holds into s.
func (s *record) decode(b []byte) {
	d := s.decodeTrack(b)
	s.begin = sim.Time(d.uvarint())
	s.decodeBody(d)
}

// decodeBody reads a span's body, its duration, request id and args, from
// d, given its begin time, phase and arg count in s.
func (s *record) decodeBody(d reader) {
	s.end = s.begin
	if s.phase != PhaseInstant {
		s.end += sim.Time(d.uvarint())
	}
	s.req = d.uvarint()
	for j := range s.nargs {
		v := d.uvarint()
		s.kinds[j], s.keys[j] = argKind(v&7), sym(v>>3)
		if s.kinds[j] == argFloat {
			s.vals[j] = binary.LittleEndian.Uint64(d.b[d.i:])
			d.i += 8
		} else {
			s.vals[j] = d.uvarint()
		}
	}
}

// reader reads uvarints from b at offset i.
type reader struct {
	b []byte
	i int
}

// uvarint reads the next uvarint. Most of a span's fields take one byte,
// a path short enough to inline.
func (d *reader) uvarint() uint64 {
	c := d.b[d.i]
	d.i++
	if c < 0x80 {
		return uint64(c)
	}
	return d.more(uint64(c))
}

// more reads the rest of a uvarint whose first byte, c, has its
// continuation bit set.
func (d *reader) more(c uint64) uint64 {
	v := c & 0x7f
	for shift := 7; ; shift += 7 {
		c := d.b[d.i]
		d.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

// chunk is one allocation unit of the span log.
type chunk struct {
	b []byte // encoded spans, each behind its length byte
	// least[i] is the least begin time of the spans pushed into b that
	// start in its block i, evicted ones included, or the greatest Time
	// when none does: a lower bound on the begin times of the retained
	// spans there, which the export orders by.
	least [chunkBytes >> blockShift]sim.Time
}

// blockShift sets the grain of a chunk's begin-time bounds: 1 KiB blocks,
// about 50 spans of a traced ObfusMem run.
const blockShift = 10

// newChunk returns a chunk of b, which holds no span.
func newChunk(b []byte) chunk {
	c := chunk{b: b}
	for i := range c.least {
		c.least[i] = math.MaxInt64
	}
	return c
}

// spanLog is the recorder's retained spans, oldest first.
type spanLog struct {
	chunks []chunk  // chunks in use, oldest first
	spare  [][]byte // emptied chunks' bytes, reused before new ones are allocated
	head   int      // offset of the oldest span in chunks[0].b
}

// open returns the log's tail, with the length byte of one span that
// begins at begin appended, for the span's encoding to be appended to and
// passed to close. Its chunk has room for the longest span.
func (l *spanLog) open(begin sim.Time) []byte {
	last := len(l.chunks) - 1
	if last < 0 || cap(l.chunks[last].b)-len(l.chunks[last].b) < 1+maxSpanBytes {
		var c []byte
		if k := len(l.spare); k > 0 {
			c, l.spare = l.spare[k-1], l.spare[:k-1]
		} else {
			c = make([]byte, 0, chunkBytes)
		}
		l.chunks = append(l.chunks, newChunk(c))
		last++
	}
	c := &l.chunks[last]
	least := &c.least[len(c.b)>>blockShift]
	*least = min(*least, begin)
	return append(c.b, 0)
}

// close stores the span that b, the tail open returned, now holds.
func (l *spanLog) close(b []byte) {
	c := &l.chunks[len(l.chunks)-1]
	b[len(c.b)] = byte(len(b) - len(c.b) - 1)
	c.b = b
}

// drop evicts the oldest span, recycling its chunk once the chunk holds no
// span.
func (l *spanLog) drop() {
	c := &l.chunks[0]
	l.head += 1 + int(c.b[l.head])
	if l.head < len(c.b) {
		return
	}
	l.head = 0
	if len(l.chunks) == 1 {
		*c = newChunk(c.b[:0])
		return
	}
	l.spare = append(l.spare, c.b[:0])
	n := copy(l.chunks, l.chunks[1:])
	l.chunks[n] = chunk{}
	l.chunks = l.chunks[:n]
}

// start returns the offset of chunk k's first retained span.
func (l *spanLog) start(k int) int {
	if k == 0 {
		return l.head
	}
	return 0
}

// span returns the encoded span at offset off of chunk c and the offset of
// the next.
func span(c []byte, off int) (b []byte, next int) {
	next = off + 1 + int(c[off])
	return c[off+1 : next], next
}
