// Command tracegen emits the synthetic post-LLC request stream of a Table 1
// workload profile as CSV (gap_ns,addr,write), plus a statistics summary on
// stderr. Useful for inspecting workload calibration or feeding external
// tools.
//
// Example:
//
//	tracegen -bench mcf -n 100000 > mcf.csv
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"obfusmem/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program behind flag parsing, returning the exit code;
// factored out of main so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench = fs.String("bench", "mcf", "benchmark profile (see -list)")
		n     = fs.Int("n", 100000, "number of requests to generate")
		seed  = fs.Uint64("seed", 1, "stream seed")
		list  = fs.Bool("list", false, "list available profiles and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "tracegen: bad -n %d: want at least 1 request\n", *n)
		return 2
	}

	if *list {
		fmt.Fprintf(stdout, "%-12s %6s %8s %10s %9s %9s %6s\n",
			"name", "IPC", "MPKI", "gap(ns)", "reads", "wb/KI", "fp(MB)")
		for _, p := range workload.SPEC2006() {
			fmt.Fprintf(stdout, "%-12s %6.2f %8.2f %10.2f %8.1f%% %9.2f %6d\n",
				p.Name, p.IPC, p.MPKI, p.GapNS, p.ReadFrac*100,
				p.WritebacksPerKI(), p.FootprintMB)
		}
		return 0
	}

	p, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	reqs := workload.Generate(p, *n, *seed)
	if err := workload.WriteTrace(stdout, reqs); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}

	var gapSum float64
	var reads int
	for _, r := range reqs {
		gapSum += r.Gap.Float64Nanos()
		if !r.Write {
			reads++
		}
	}
	fmt.Fprintf(stderr, "%s: %d requests, mean compute gap %.2f ns, %.1f%% reads (target %.1f%%)\n",
		p.Name, *n, gapSum/float64(*n), float64(reads)/float64(*n)*100, p.ReadFrac*100)
	return 0
}
