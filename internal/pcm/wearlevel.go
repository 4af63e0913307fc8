package pcm

import (
	"fmt"

	"obfusmem/internal/xrand"
)

// StartGap implements the Start-Gap wear-levelling scheme (Qureshi et al.,
// MICRO 2009) that Section 2.2 of the paper lists among the logic-layer
// functions smart NVM modules must provide. N logical lines live in N+1
// physical lines; one physical line (the gap) is unused, and every Psi
// writes the gap walks one position, slowly rotating the logical-to-
// physical mapping so that write-heavy lines do not pin hot cells.
//
// The mapping lives *inside* the memory module, behind the ObfusMem
// memory-side controller — invisible on the bus, so it composes freely
// with access-pattern obfuscation.
type StartGap struct {
	n     int // logical lines
	start int // rotation offset
	gap   int // current gap position in [0, n]
	psi   int // writes per gap move
	wcnt  int
	moves uint64
	// randomizedStart applies a static random start (the paper's
	// security-hardened variant uses a random invertible mapping; a random
	// start is the lightweight version).
	offset int
}

// NewStartGap builds a wear leveller over n logical lines, moving the gap
// every psi writes. A random static offset is drawn from rng (nil for 0).
func NewStartGap(n, psi int, rng *xrand.Rand) *StartGap {
	if n <= 0 || psi <= 0 {
		panic(fmt.Sprintf("pcm: invalid start-gap n=%d psi=%d", n, psi))
	}
	s := &StartGap{n: n, gap: n, psi: psi}
	if rng != nil {
		s.offset = rng.Intn(n)
	}
	return s
}

// GapMoves returns how many gap movements (line copies) have occurred.
func (s *StartGap) GapMoves() uint64 { return s.moves }

// Map translates a logical line to its current physical line in [0, n].
func (s *StartGap) Map(logical int) int {
	if logical < 0 || logical >= s.n {
		panic(fmt.Sprintf("pcm: logical line %d out of %d", logical, s.n))
	}
	p := (logical + s.start + s.offset) % s.n
	if p >= s.gap {
		p++
	}
	return p
}

// OnWrite records one write; every Psi writes the gap moves one slot,
// which costs one line migration (read + write) that the caller should
// account for. It reports whether a migration happened and which physical
// line was copied (source) this time.
func (s *StartGap) OnWrite() (migrated bool, srcPhysical int) {
	s.wcnt++
	if s.wcnt < s.psi {
		return false, 0
	}
	s.wcnt = 0
	s.moves++
	// Move the line just below the gap into the gap.
	if s.gap == 0 {
		s.gap = s.n
		s.start = (s.start + 1) % s.n
		return false, 0 // wrap bookkeeping only; no copy
	}
	src := s.gap - 1
	s.gap--
	return true, src
}

// WearSpread runs a synthetic check: it returns the ratio of maximum to
// mean per-physical-line write counts after applying the given write
// pattern through the leveller — the quantity Start-Gap exists to drive
// toward 1.0.
func (s *StartGap) WearSpread(writes []int) float64 {
	counts := make([]int, s.n+1)
	for _, l := range writes {
		counts[s.Map(l)]++
		if mig, _ := s.OnWrite(); mig {
			// The migrated line is written into the old gap slot (reads
			// do not wear PCM cells).
			counts[s.gap+1]++
		}
	}
	max, sum := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	return float64(max) / mean
}
