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

	"obfusmem/internal/analysis/framework"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
}

// Result is the outcome of one Load call.
type Result struct {
	// Packages are the type-checked packages matching the patterns, in
	// import-path order.
	Packages []*framework.Package
	// Fset is shared by all loaded packages.
	Fset *token.FileSet
}

// Load lists patterns in dir (a directory inside the target module) and
// type-checks every non-dependency match from source. Dependencies —
// standard library and module-internal alike — are resolved from compiler
// export data, so a full `./...` load stays fast.
func Load(dir string, patterns ...string) (*Result, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	var targets []*listPackage
	for _, p := range pkgs {
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs, "")
	res := &Result{Fset: fset}
	for _, p := range targets {
		files := make([]string, 0, len(p.GoFiles))
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		fp, err := checkPackage(fset, imp, p.ImportPath, files)
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
func Files(moduleDir, importPath, pkgDir string) (*framework.Package, error) {
	pkgs, err := goList(moduleDir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(pkgDir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", pkgDir)
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs, " (golden packages may import only the module's dependencies)")
	return checkPackage(fset, imp, importPath, files)
}

// exportImporter resolves imports from the listed packages' compiler
// export data; hint is appended to the error for a missing package.
func exportImporter(fset *token.FileSet, pkgs []*listPackage, hint string) types.Importer {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q%s", path, hint)
		}
		return os.Open(f)
	})
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
	}, nil
}

// goList shells out to the go tool for the package graph with export data.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Incomplete",
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
