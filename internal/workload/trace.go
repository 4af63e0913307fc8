package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"obfusmem/internal/sim"
)

// Trace file format: the CSV emitted by cmd/tracegen — a header line
// "gap_ns,addr,write" followed by one request per line. Addresses may be
// decimal or 0x-prefixed hex. Gaps are written as exact picoseconds, so a
// trace read back returns the same requests.

// WriteTrace serialises requests to w. It rejects a negative gap, which no
// trace can carry.
func WriteTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "gap_ns,addr,write"); err != nil {
		return err
	}
	for _, r := range reqs {
		if r.Gap < 0 {
			return fmt.Errorf("workload: negative gap %v", r.Gap)
		}
		wr := 0
		if r.Write {
			wr = 1
		}
		ns, ps := r.Gap/sim.Nanosecond, r.Gap%sim.Nanosecond
		if _, err := fmt.Fprintf(bw, "%d.%03d,%#x,%d\n", ns, ps, r.Addr, wr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace file.
func ReadTrace(r io.Reader) ([]Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Request
	lineNo := 0
	seenData := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The header may be preceded by comments or blank lines, so it is
		// recognised anywhere before the first data row, not only on line 1.
		if !seenData && strings.HasPrefix(line, "gap_ns") {
			continue
		}
		seenData = true
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: trace line %d: want 3 fields, got %d", lineNo, len(parts))
		}
		gapT, err := parseGap(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad gap %q: %v", lineNo, parts[0], err)
		}
		addrStr := strings.TrimSpace(parts[1])
		addr, err := strconv.ParseUint(strings.TrimPrefix(addrStr, "0x"), base(addrStr), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad address %q", lineNo, parts[1])
		}
		wr, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil || (wr != 0 && wr != 1) {
			return nil, fmt.Errorf("workload: trace line %d: bad write flag %q", lineNo, parts[2])
		}
		out = append(out, Request{Gap: gapT, Addr: addr &^ 63, Write: wr == 1})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseGap reads a gap in nanoseconds. The plain decimal form WriteTrace
// emits (digits, then at most three fractional digits) converts exactly to
// picoseconds; float rounding would move gaps above ~2^41 ns by a few
// picoseconds on a write/read cycle. Other spellings (exponents, more
// digits) go through float parsing and sim.TryNanos.
func parseGap(s string) (sim.Time, error) {
	whole, frac, _ := strings.Cut(s, ".")
	if len(frac) <= 3 && digits(whole) && (frac == "" || digits(frac)) {
		// Below this bound ns*1000 + 999 still fits in int64.
		if ns, err := strconv.ParseInt(whole, 10, 64); err == nil && ns < (1<<63-1)/1000 {
			ps := ns * 1000
			for i, scale := 0, int64(100); i < len(frac); i, scale = i+1, scale/10 {
				ps += int64(frac[i]-'0') * scale
			}
			return sim.Time(ps), nil
		}
	}
	ns, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number")
	}
	return sim.TryNanos(ns)
}

// digits reports whether s is a non-empty run of ASCII digits.
func digits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

// Generate materialises n requests of a profile (convenience for trace
// writing and tests).
func Generate(p Profile, n int, seed uint64) []Request {
	s := NewStream(p, seed)
	out := make([]Request, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
