// Command obfuslint runs the repository's static-analysis suite over the
// packages matching the given patterns (./... by default); `obfuslint -list`
// names the passes and what each one checks. It plays the role of an
// x/tools multichecker without the dependency: packages are type-checked
// from source against `go list -export` build-cache data, so a prior
// `go build ./...` is the only prerequisite.
//
// Findings print as file:line:col: analyzer[rule]: message, one per line (or
// as a JSON array with -json), and a non-empty report exits 1.
//
// Usage:
//
//	obfuslint [-list] [-json] [packages]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"obfusmem/internal/analysis"
	"obfusmem/internal/analysis/framework"
	"obfusmem/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// jsonFinding is the machine-readable shape of one diagnostic, stable for
// tooling that consumes `obfuslint -json` (editor integrations, CI annota-
// tions). Fields mirror the text format: file:line:col: pass[rule]: message.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func run(stdout, stderr *os.File, args []string) int {
	fs := flag.NewFlagSet("obfuslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of text lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analysis.All()
	if *list {
		sorted := append([]*framework.Analyzer(nil), suite...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, a := range sorted {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "obfuslint: %v\n", err)
		return 2
	}
	diags, err := framework.Run(res.Packages, suite)
	if err != nil {
		fmt.Fprintf(stderr, "obfuslint: %v\n", err)
		return 2
	}

	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			p := res.Fset.Position(d.Pos)
			findings = append(findings, jsonFinding{
				File: p.Filename, Line: p.Line, Col: p.Column,
				Pass: d.Analyzer, Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "obfuslint: %v\n", err)
			return 2
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s[%s]: %s\n", res.Fset.Position(d.Pos), d.Analyzer, d.Rule, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	fmt.Fprintf(stderr, "obfuslint: %d packages clean\n", len(res.Packages))
	return 0
}
