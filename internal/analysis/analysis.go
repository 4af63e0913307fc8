// Package analysis assembles the obfuslint suite: the static-analysis
// passes that machine-check the invariants a runtime test can miss (see
// each pass's package documentation, and the "Machine-checked invariants"
// section of DESIGN.md). The cmd/obfuslint driver and the repository-cleanliness
// integration test both consume the suite through All, so a new pass is
// wired into both by adding it here.
package analysis

import (
	"obfusmem/internal/analysis/framework"
	"obfusmem/internal/analysis/passes/determinism"
)

// All returns the full obfuslint suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		determinism.Analyzer,
	}
}
