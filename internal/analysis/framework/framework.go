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

	"obfusmem/internal/analysis/annot"
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
	// Annot holds the parsed //obfus:* directives of this package's files.
	Annot *annot.Directives
	// Module resolves //obfus:* annotations on functions in other packages
	// of this module (nil outside a module-aware driver run, e.g. in
	// single-package golden tests that do not need cross-package facts).
	Module *annot.ModuleIndex
	// Facts is the run-wide fact store: interprocedural passes export one
	// summary per analyzed function and import their callees' summaries
	// from earlier (dependency-ordered) packages of the same Run.
	Facts *Facts

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos under the analyzer's default rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRulef records a diagnostic at pos under a named sub-rule of the
// analyzer (the machine-readable rule slug in -json output).
func (p *Pass) ReportRulef(pos token.Pos, rule, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Rule: rule, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	// Rule is the analyzer sub-rule slug; defaults to the analyzer name.
	Rule    string
	Pos     token.Pos
	Message string
}

// Facts is a run-wide store of per-function facts, keyed by (analyzer,
// package import path, function key). Packages are analyzed in dependency
// order, so by the time a caller's package runs, every module-internal
// callee's facts are already exported.
type Facts struct {
	m map[factKey]any
}

type factKey struct{ analyzer, pkg, fn string }

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: make(map[factKey]any)} }

// Export records a fact for a function of the pass's package.
func (f *Facts) Export(analyzer, pkg, fn string, v any) {
	f.m[factKey{analyzer, pkg, fn}] = v
}

// Import returns the fact exported for the named function, or nil.
func (f *Facts) Import(analyzer, pkg, fn string) any {
	if f == nil {
		return nil
	}
	return f.m[factKey{analyzer, pkg, fn}]
}

// Package is one loaded, type-checked package (see Load).
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	Annot      *annot.Directives
}

// Run applies the analyzers to the packages and returns their diagnostics in deterministic (file, line, column, analyzer)
// order. module may be nil when cross-package annotation lookup is not
// needed.
func Run(pkgs []*Package, analyzers []*Analyzer, module *annot.ModuleIndex) ([]Diagnostic, error) {
	var out []Diagnostic
	facts := NewFacts()
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				Annot:     pkg.Annot,
				Module:    module,
				Facts:     facts,
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
	SortDiagnostics(fset, out)
	return out, nil
}

// SortDiagnostics orders findings by (file, line, column, analyzer). Drivers
// that merge Run output with Hygiene output use it to restore the canonical
// order before printing.
func SortDiagnostics(fset *token.FileSet, out []Diagnostic) {
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

// Hygiene returns the packages' malformed //obfus:* directives as findings.
func Hygiene(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, m := range pkg.Annot.MalformedDirectives() {
			out = append(out, Diagnostic{
				Analyzer: "annotation", Rule: "malformed-directive", Pos: m.Pos,
				Message: fmt.Sprintf("malformed directive %q (want //obfus:public <reason> or //obfus:<directive>)", m.Text),
			})
		}
	}
	return out
}
