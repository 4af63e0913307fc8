package determinism_test

import (
	"testing"

	"obfusmem/internal/analysis/analysistest"
	"obfusmem/internal/analysis/passes/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "sim", "obfusmem/internal/sim", determinism.Analyzer)
}

func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, "outside", "example.com/outside", determinism.Analyzer)
}
