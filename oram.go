package obfusmem

import (
	"obfusmem/internal/oram"
	"obfusmem/internal/xrand"
)

// PathORAM is the functional Path ORAM baseline (Stefanov et al.),
// re-exported for direct experimentation: tree, stash, position map, and
// the overhead counters the paper's comparison rests on.
type PathORAM = oram.ORAM

// PathORAMConfig shapes a Path ORAM tree.
type PathORAMConfig = oram.Config

// ORAM operations.
const (
	ORAMRead  = oram.OpRead
	ORAMWrite = oram.OpWrite
)

// ErrStashOverflow is returned when an access exceeds the stash bound —
// the failure/deadlock risk of Path ORAM (paper Section 2.3).
var ErrStashOverflow = oram.ErrStashOverflow

// NewPathORAM builds a functional Path ORAM over nBlocks logical blocks.
// Use oram defaults via DefaultPathORAMConfig for the paper's L=24, Z=4
// geometry, or a smaller tree for interactive experiments.
func NewPathORAM(cfg PathORAMConfig, nBlocks int, seed uint64) (*PathORAM, error) {
	return oram.New(cfg, nBlocks, xrand.New(seed))
}

// DefaultPathORAMConfig returns the paper's base ORAM parameters.
func DefaultPathORAMConfig() PathORAMConfig { return oram.DefaultConfig() }
