package obfusmem

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	testName   = regexp.MustCompile(`^(Test|Fuzz)[A-Z0-9_]\w*$`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
)

// TestDesignLedger checks DESIGN.md §2 against the tree. Every directory
// holding non-test Go code (bench/ and testdata/ aside) must have a row,
// every path a row names must exist, every "Earns its place by" cell must
// be filled, and every test a cell names must exist.
func TestDesignLedger(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 2. ")
	end := strings.Index(doc, "\n## 3. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §2 followed by §3")
	}

	dirs := map[string]bool{}  // directories holding non-test Go code
	tests := map[string]bool{} // Test and Fuzz functions anywhere in the tree
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, "_test.go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = true
			}
		case strings.HasSuffix(name, ".go"):
			dirs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	covered := map[string]bool{}
	for _, line := range strings.Split(doc[start:end], "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") || strings.HasPrefix(line, "| Module |") {
			continue
		}
		cells := strings.Split(strings.ReplaceAll(strings.Trim(line, "|"), `\|`, ""), " | ")
		if len(cells) < 3 || len(cells) > 4 {
			t.Errorf("§2 row has %d cells, want 4: %s", len(cells), line)
			continue
		}
		module, pkg, earns := strings.TrimSpace(cells[0]), cells[1], ""
		if len(cells) == 4 {
			earns = strings.TrimSpace(cells[3])
		}
		if earns == "" {
			t.Errorf("§2 row %q: empty \"Earns its place by\" cell", module)
		}
		for _, m := range backticked.FindAllStringSubmatch(pkg, -1) {
			path := m[1]
			if path == "obfusmem" { // the module path names the root package
				path = "."
			}
			if strings.HasSuffix(path, ".go") {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("§2 row %q names %s, which does not exist", module, path)
				}
				continue
			}
			if !dirs[path] {
				t.Errorf("§2 row %q names %s, which holds no non-test Go code", module, path)
			}
			covered[path] = true
		}
		for _, m := range backticked.FindAllStringSubmatch(earns, -1) {
			if testName.MatchString(m[1]) && !tests[m[1]] {
				t.Errorf("§2 row %q names %s, which is not a test in the tree", module, m[1])
			}
		}
	}
	var missing []string
	for d := range dirs {
		if !covered[d] {
			missing = append(missing, d)
		}
	}
	sort.Strings(missing)
	for _, d := range missing {
		t.Errorf("%s holds non-test Go code but has no DESIGN.md §2 row", d)
	}
}
