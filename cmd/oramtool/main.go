// Command oramtool drives the functional Path ORAM and reports the
// behaviour that decides its practicality: stash occupancy distribution,
// overflow probability versus stash capacity, bandwidth and write
// amplification, and leaf-trace uniformity.
//
// Example:
//
//	oramtool -levels 12 -z 4 -blocks 8000 -accesses 20000
//	oramtool -sweep            # stash-capacity failure sweep
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"obfusmem/internal/oram"
	"obfusmem/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program behind flag parsing, returning the exit code;
// factored out of main so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oramtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		levels   = fs.Int("levels", 12, "tree levels L (the tree has L+1 bucket levels)")
		z        = fs.Int("z", 4, "blocks per bucket")
		blocks   = fs.Int("blocks", 8000, "logical blocks (must be <= 50% of capacity)")
		accesses = fs.Int("accesses", 20000, "accesses to simulate")
		stash    = fs.Int("stash", 200, "stash capacity")
		seed     = fs.Uint64("seed", 1, "seed")
		sweep    = fs.Bool("sweep", false, "sweep stash capacity and report overflow rates")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *accesses < 1 {
		fmt.Fprintf(stderr, "oramtool: -accesses %d; need at least 1\n", *accesses)
		return 2
	}

	if *sweep {
		return stashSweep(stdout, stderr, *levels, *z, *blocks, *accesses, *seed)
	}

	cfg := oram.Config{Levels: *levels, Z: *z, StashCapacity: *stash, BlockBytes: 64}
	o, err := oram.New(cfg, *blocks, xrand.New(*seed))
	if err != nil {
		fmt.Fprintln(stderr, "oramtool:", err)
		return 2
	}
	r := xrand.New(*seed + 1)
	hist := map[int]int{}
	overflows := 0
	for i := 0; i < *accesses; i++ {
		if _, err := o.Access(oram.OpRead, r.Intn(*blocks), nil); err != nil {
			overflows++
		}
		hist[o.StashSize()]++
	}
	st := o.Stats()
	fmt.Fprintf(stdout, "Path ORAM L=%d Z=%d: %d blocks in %d slots (%.0f%% storage overhead)\n",
		*levels, *z, *blocks, o.Capacity(), o.StorageOverhead()*100)
	fmt.Fprintf(stdout, "accesses: %d, path length %d blocks\n", st.Accesses, o.PathLength())
	fmt.Fprintf(stdout, "blocks read %d, written %d (write amplification %.0fx)\n",
		st.BlocksRead, st.BlocksWritten, o.WriteAmplification())
	fmt.Fprintf(stdout, "stash: max %d, mean %.2f, overflows %d\n", st.StashMax, o.MeanStash(), overflows)

	fmt.Fprintln(stdout, "\nstash occupancy distribution after each access:")
	cum := 0
	for size := 0; size <= st.StashMax; size++ {
		n := hist[size]
		if n == 0 {
			continue
		}
		cum += n
		bar := ""
		for b := 0; b < n*60 / *accesses; b++ {
			bar += "#"
		}
		fmt.Fprintf(stdout, "%4d: %7d (%5.1f%% cum) %s\n", size, n, float64(cum)/float64(*accesses)*100, bar)
	}

	// Leaf-trace uniformity summary.
	trace := o.LeafTrace()
	counts := map[int]int{}
	for _, l := range trace {
		counts[l]++
	}
	fmt.Fprintf(stdout, "\nleaf trace: %d accesses over %d distinct leaves (of %d)\n",
		len(trace), len(counts), 1<<*levels)
	return 0
}

func stashSweep(stdout, stderr io.Writer, levels, z, blocks, accesses int, seed uint64) int {
	for i, cap := range []int{0, 2, 5, 10, 20, 50, 100} {
		cfg := oram.Config{Levels: levels, Z: z, StashCapacity: cap, BlockBytes: 64}
		o, err := oram.New(cfg, blocks, xrand.New(seed))
		if err != nil {
			fmt.Fprintln(stderr, "oramtool:", err)
			return 2
		}
		if i == 0 {
			// Only the stash capacity varies, so the first tree validates
			// the geometry before anything is printed.
			fmt.Fprintln(stdout, "stash capacity sweep: overflow events per run")
			fmt.Fprintf(stdout, "%8s %10s %10s\n", "capacity", "overflows", "rate")
		}
		r := xrand.New(seed + 1)
		overflows := 0
		for i := 0; i < accesses; i++ {
			if _, err := o.Access(oram.OpRead, r.Intn(blocks), nil); err != nil {
				overflows++
			}
		}
		fmt.Fprintf(stdout, "%8d %10d %9.3f%%\n", cap, overflows, float64(overflows)/float64(accesses)*100)
	}
	fmt.Fprintln(stdout, "\noverflow == a hardware ORAM controller stall (the deadlock risk of Table 4)")
	return 0
}
