// Package analysistest runs the determinism pass over a directory of golden
// test sources and compares its diagnostics against `// want` comments, in
// the style of golang.org/x/tools/go/analysis/analysistest.
//
// Expectations are written on the offending line:
//
//	badCall() // want "part of the expected message"
//
// Each quoted string is a substring expectation; a line may carry several.
// Lines with no want comment must produce no diagnostics, so every golden
// package also proves the analyzer's negative space.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"obfusmem/internal/analysis/load"
	"obfusmem/internal/analysis/passes/determinism"
)

var (
	rootOnce sync.Once
	rootDir  string
	rootErr  error
)

// ModuleRoot locates the enclosing module's directory via the go tool.
func ModuleRoot() (string, error) {
	rootOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			rootErr = fmt.Errorf("go env GOMOD: %w", err)
			return
		}
		gomod := strings.TrimSpace(string(out))
		if gomod == "" || gomod == os.DevNull {
			rootErr = fmt.Errorf("not inside a module")
			return
		}
		rootDir = filepath.Dir(gomod)
	})
	return rootDir, rootErr
}

// Run loads testdata/src/<pkg> under the caller's directory as a package
// with the given synthetic import path, applies the determinism pass, and
// fails t on any mismatch with the // want expectations.
func Run(t *testing.T, pkg, importPath string) {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", pkg)
	fp, err := load.Files(root, importPath, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	diags := determinism.Check([]*load.Package{fp})

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	for _, f := range fp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := fp.Fset.Position(c.Pos())
				k := key{filepath.Base(pos.Filename), pos.Line}
				wants[k] = append(wants[k], parseWants(t, text[idx+len("want "):], pos)...)
			}
		}
	}

	matched := make(map[key]int)
	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		exp := wants[k]
		if matched[k] < len(exp) && strings.Contains(d.Message, exp[matched[k]]) {
			matched[k]++
			continue
		}
		t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, d.Message)
	}
	for k, exp := range wants {
		for i := matched[k]; i < len(exp); i++ {
			t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, exp[i])
		}
	}
}

// parseWants extracts the sequence of quoted expectations from a want
// comment tail.
func parseWants(t *testing.T, s string, pos token.Position) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" || !strings.HasPrefix(s, `"`) {
			break
		}
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s: malformed want expectation %q", pos, s)
		}
		unq, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: malformed want expectation %q", pos, s)
		}
		out = append(out, unq)
		s = s[len(q):]
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no quoted expectation", pos)
	}
	return out
}
