// Package framework is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis driver model on top of the standard
// library's go/ast, go/types, and go/importer.
//
// The repository's invariants are enforced at runtime by tests where a
// runtime test catches every violation class; the obfuslint analyzers built
// on this framework cover the classes a runtime test can miss. The framework
// exists because the toolchain image intentionally carries no module
// dependencies: analyzers receive the same (Fset, Files, Pkg, TypesInfo)
// quadruple a go/analysis Pass would provide, and the cmd/obfuslint driver
// plays the multichecker. There is no suppression comment: every finding is
// fixed, or the analyzer's rule is narrowed.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// machine-checks.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos under the analyzer's default rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	// Rule is the analyzer sub-rule slug; defaults to the analyzer name.
	Rule    string
	Pos     token.Pos
	Message string
}

// Package is one loaded, type-checked package (see Load).
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Run applies the analyzers to the packages and returns their diagnostics
// in deterministic (file, line, column, analyzer) order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				d.Analyzer = a.Name
				if d.Rule == "" {
					d.Rule = a.Name
				}
				out = append(out, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
			}
		}
	}
	fset := (*token.FileSet)(nil)
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	sortDiagnostics(fset, out)
	return out, nil
}

// sortDiagnostics orders findings by (file, line, column, analyzer).
func sortDiagnostics(fset *token.FileSet, out []Diagnostic) {
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}
