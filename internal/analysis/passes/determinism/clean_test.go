package determinism_test

import (
	"testing"

	"obfusmem/internal/analysis/analysistest"
	"obfusmem/internal/analysis/load"
	"obfusmem/internal/analysis/passes/determinism"
)

// TestRepositoryClean runs the determinism pass over the module and
// requires zero findings: the invariant holds for the tree as committed,
// and any future violation fails CI here (and in the `make lint` job)
// rather than in review.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := analysistest.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := load.Load(root, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(res.Packages) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range determinism.Check(res.Packages) {
		t.Errorf("%s: determinism: %s", d.Pos, d.Message)
	}
}
