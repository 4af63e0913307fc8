// Command obfuslint runs the repository's static-analysis pass,
// determinism (order-dependent map iteration in the simulation packages),
// over the packages matching the given patterns (./... by default). It
// plays the role of an x/tools singlechecker without the dependency:
// packages are type-checked from source against `go list -export`
// build-cache data, so a prior `go build ./...` is the only prerequisite.
//
// Findings print as file:line:col: determinism: message, one per line in
// position order, and a non-empty report exits 1.
//
// Usage:
//
//	obfuslint [packages]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"obfusmem/internal/analysis/load"
	"obfusmem/internal/analysis/passes/determinism"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("obfuslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
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
	diags := determinism.Check(res.Packages)
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: determinism: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	fmt.Fprintf(stderr, "obfuslint: %d packages clean\n", len(res.Packages))
	return 0
}
