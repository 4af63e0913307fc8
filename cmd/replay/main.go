// Command replay runs a recorded request trace (the CSV format of
// cmd/tracegen) against a machine under a chosen protection scheme and
// reports execution statistics — comparing schemes on identical traffic.
// Schemes are named by their registered backend names; "all" runs every
// registered scheme, unprotected first as the overhead base.
//
// Example:
//
//	tracegen -bench mcf -n 50000 > mcf.csv
//	replay -trace mcf.csv -protection obfusmem-auth
//	replay -trace mcf.csv -protection all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"obfusmem"
	"obfusmem/internal/system"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole program behind flag parsing, returning the exit code;
// factored out of main so tests can drive the binary in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	registered := system.BackendNames()
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "trace CSV (required; - for stdin)")
		prot      = fs.String("protection", "all", strings.Join(registered, "|")+"|all")
		channels  = fs.Int("channels", 1, "memory channels (1,2,4,8)")
		seed      = fs.Uint64("seed", 1, "machine seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tracePath == "" {
		fmt.Fprintln(stderr, "replay: -trace is required")
		fs.Usage()
		return 2
	}

	// Unprotected leads "all": it is the base the overhead column is
	// measured against.
	names := []string{"unprotected"}
	for _, n := range registered {
		if n != "unprotected" {
			names = append(names, n)
		}
	}
	if *prot != "all" {
		if !slices.Contains(registered, *prot) {
			fmt.Fprintf(stderr, "replay: unknown protection %q (registered: %s)\n",
				*prot, strings.Join(registered, ", "))
			return 2
		}
		names = []string{*prot}
	}

	in := stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "replay:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	reqs, err := obfusmem.ReadTrace(in)
	if err != nil {
		fmt.Fprintln(stderr, "replay:", err)
		return 1
	}
	fmt.Fprintf(stderr, "replay: %d requests loaded\n", len(reqs))

	fmt.Fprintf(stdout, "%-16s %14s %12s %12s\n", "protection", "exec time", "mean read", "overhead")
	var base obfusmem.Result
	for i, name := range names {
		m, err := obfusmem.NewMachine(obfusmem.MachineConfig{
			Protection: obfusmem.Protection(name), Channels: *channels, Seed: *seed})
		if err != nil {
			fmt.Fprintln(stderr, "replay:", err)
			return 1
		}
		res := m.ReplayTrace(name, reqs)
		if i == 0 {
			base = res
		}
		fmt.Fprintf(stdout, "%-16s %14v %9.0f ns %11.1f%%\n",
			name, res.ExecTime, res.MeanReadNS, obfusmem.Overhead(base, res))
	}
	return 0
}
