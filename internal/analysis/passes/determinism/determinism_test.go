package determinism_test

import (
	"testing"

	"obfusmem/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "sim", "obfusmem/internal/sim")
}

func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, "outside", "example.com/outside")
}
