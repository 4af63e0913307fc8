// Package load type-checks Go packages for obfuslint without any module
// dependency: it shells out to `go list -export` for the build-cache export
// data of every dependency, then parses and type-checks only the packages
// under analysis from source with the standard go/importer. This trades the
// generality of golang.org/x/tools/go/packages for zero third-party code —
// exactly the right trade inside a repository whose toolchain image is
// frozen.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"obfusmem/internal/analysis/annot"
	"obfusmem/internal/analysis/framework"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
}

// Result is the outcome of one Load call.
type Result struct {
	// Packages are the type-checked packages matching the patterns, in
	// deterministic import-path order.
	Packages []*framework.Package
	// Module indexes //obfus:* annotations across every non-standard
	// package in the dependency graph.
	Module *annot.ModuleIndex
	// Fset is shared by all loaded packages.
	Fset *token.FileSet
}

// Load lists patterns in dir (a directory inside the target module),
// type-checks every non-dependency match from source, and returns them with
// a module-wide annotation index. Dependencies — standard library and
// module-internal alike — are resolved from compiler export data, so a full
// `./...` load stays fast.
func Load(dir string, patterns ...string) (*Result, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(pkgs))
	moduleFiles := make(map[string][]string)
	var targets []*listPackage
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			files := make([]string, 0, len(p.GoFiles))
			for _, f := range p.GoFiles {
				files = append(files, filepath.Join(p.Dir, f))
			}
			moduleFiles[p.ImportPath] = files
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sortTargets(targets)

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	res := &Result{Module: annot.NewModuleIndex(moduleFiles), Fset: fset}
	for _, p := range targets {
		fp, err := checkPackage(fset, imp, p.ImportPath, moduleFiles[p.ImportPath])
		if err != nil {
			return nil, err
		}
		res.Packages = append(res.Packages, fp)
	}
	return res, nil
}

// Files type-checks one directory of Go files as a single package under the
// given synthetic import path, resolving its imports from the export data of
// module dir's dependency graph, so golden-test packages may import only
// packages the module itself depends on. This is the analysistest entry
// point.
func Files(moduleDir, importPath, pkgDir string) (*framework.Package, *annot.ModuleIndex, error) {
	pkgs, err := goList(moduleDir, []string{"./..."})
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(pkgs))
	moduleFiles := make(map[string][]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			files := make([]string, 0, len(p.GoFiles))
			for _, f := range p.GoFiles {
				files = append(files, filepath.Join(p.Dir, f))
			}
			moduleFiles[p.ImportPath] = files
		}
	}

	ents, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(pkgDir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", pkgDir)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (golden packages may import only the module's dependencies)", path)
		}
		return os.Open(f)
	})
	fp, err := checkPackage(fset, imp, importPath, files)
	if err != nil {
		return nil, nil, err
	}
	return fp, annot.NewModuleIndex(moduleFiles), nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath string, files []string) (*framework.Package, error) {
	var astFiles []*ast.File
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", file, err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(importPath, fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &framework.Package{
		ImportPath: importPath,
		Dir:        filepath.Dir(files[0]),
		Fset:       fset,
		Files:      astFiles,
		Pkg:        pkg,
		Info:       info,
		Annot:      annot.Parse(astFiles),
	}, nil
}

// sortTargets orders packages topologically — dependencies before
// dependents — so interprocedural passes find their callees' summaries
// already exported by the time a caller's package runs. Ties (packages with
// no dependency relation) break by import path, keeping the order
// deterministic for a given module graph.
func sortTargets(targets []*listPackage) {
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	byPath := make(map[string]*listPackage, len(targets))
	for _, p := range targets {
		byPath[p.ImportPath] = p
	}
	state := make(map[string]int, len(targets)) // 0 unvisited, 1 visiting, 2 done
	out := make([]*listPackage, 0, len(targets))
	var visit func(p *listPackage)
	visit = func(p *listPackage) {
		if state[p.ImportPath] != 0 {
			return // done, or a cycle (impossible in a valid build) — skip
		}
		state[p.ImportPath] = 1
		deps := append([]string(nil), p.Imports...)
		sort.Strings(deps)
		for _, imp := range deps {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		out = append(out, p)
	}
	for _, p := range targets {
		visit(p)
	}
	copy(targets, out)
}

// goList shells out to the go tool for the package graph with export data.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Imports,Export,Standard,DepOnly,Incomplete",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []*listPackage
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		if p.Incomplete {
			return nil, fmt.Errorf("go list: package %s did not build; run `go build ./...` first", p.ImportPath)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
