package main

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// goldenFS holds golden/<workload>.txt: the simulated-result digest of every
// cell a default run makes, recorded by an explicit -record-golden run.
//
//go:embed golden
var goldenFS embed.FS

type golden struct {
	seed     uint64
	requests int
	digests  map[string]uint64 // cell key -> digest
}

func loadGolden(name string) (golden, bool) {
	data, err := goldenFS.ReadFile("golden/" + name + ".txt")
	if err != nil {
		return golden{}, false
	}
	g := golden{digests: map[string]uint64{}}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# seed: "); ok {
			g.seed, err = strconv.ParseUint(v, 10, 64)
		} else if v, ok := strings.CutPrefix(line, "# requests: "); ok {
			g.requests, err = strconv.Atoi(v)
		} else if line != "" && !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			var d uint64
			if d, err = strconv.ParseUint(line[i+1:], 16, 64); err == nil {
				g.digests[line[:i]] = d
			}
		}
		if err != nil {
			panic(fmt.Sprintf("golden/%s.txt: %q: %v", name, line, err))
		}
	}
	return g, true
}

// writeGolden records the digests of a run whose cells all passed their
// checks, under a provenance header.
func writeGolden(r *report) error {
	if r.failed > 0 || !r.correct {
		return fmt.Errorf("refusing to record golden digests of a failing %s run", r.w.name)
	}
	if err := os.MkdirAll(r.o.golden, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	p := newProvenance(r)
	fmt.Fprintf(&b, "# golden digests for workload %s, written by -record-golden\n", r.w.name)
	fmt.Fprintf(&b, "# go: %s %s/%s, nproc %d, gomaxprocs %d\n", p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS)
	fmt.Fprintf(&b, "# vcs: %s modified=%s\n", p.Revision, p.Modified)
	fmt.Fprintf(&b, "# BENCHMARK.json sha256: %s\n", p.BenchmarkSHA256)
	fmt.Fprintf(&b, "# rounds: %d\n# seed: %d\n# requests: %d\n", r.rounds, r.o.seed, r.n)
	for _, c := range r.cells {
		fmt.Fprintf(&b, "%s %016x\n", c.cell.key(), c.digest)
	}
	return os.WriteFile(filepath.Join(r.o.golden, r.w.name+".txt"), []byte(b.String()), 0o644)
}
