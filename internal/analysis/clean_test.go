package analysis

import (
	"testing"

	"obfusmem/internal/analysis/analysistest"
	"obfusmem/internal/analysis/framework"
	"obfusmem/internal/analysis/load"
)

// TestRepositoryClean runs the full obfuslint suite over the module and
// requires zero findings: the invariants the analyzers encode hold for the
// tree as committed, and any future violation fails CI here (and in the
// `make lint` job) rather than in review.
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
	diags, err := framework.Run(res.Packages, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", res.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
