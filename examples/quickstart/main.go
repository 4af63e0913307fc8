// Quickstart: build one machine per protection level, run the same
// memory-intensive SPEC 2006 profile on each, and print the execution-time
// comparison that motivates the paper — ObfusMem obfuscates the access
// pattern for ~10% where ORAM costs ~10x.
package main

import (
	"fmt"
	"io"
	"os"

	"obfusmem"
)

func main() { os.Exit(run(os.Stdout)) }

// run writes the report to stdout and returns the exit code.
func run(stdout io.Writer) int {
	const bench = "mcf"
	const requests = 8000

	levels := []obfusmem.Protection{
		obfusmem.ProtectionNone,
		obfusmem.ProtectionEncrypt,
		obfusmem.ProtectionObfusMem,
		obfusmem.ProtectionObfusMemAuth,
		obfusmem.ProtectionORAM,
	}

	fmt.Fprintf(stdout, "workload %s, %d memory requests per machine\n\n", bench, requests)
	fmt.Fprintf(stdout, "%-16s %12s %8s %12s %10s\n", "protection", "exec time", "IPC", "mean read", "overhead")

	var base obfusmem.Result
	for i, p := range levels {
		m, err := obfusmem.NewMachine(obfusmem.MachineConfig{Protection: p, Seed: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		res, err := m.RunBenchmark(bench, requests)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if i == 0 {
			base = res
		}
		fmt.Fprintf(stdout, "%-16s %12v %8.2f %9.0f ns %9.1f%%\n",
			p, res.ExecTime, res.IPC, res.MeanReadNS, obfusmem.Overhead(base, res))
	}

	// The paper's headline: ObfusMem+Auth vs ORAM.
	mo, _ := obfusmem.NewMachine(obfusmem.MachineConfig{Protection: obfusmem.ProtectionObfusMemAuth, Seed: 1})
	ro, _ := obfusmem.NewMachine(obfusmem.MachineConfig{Protection: obfusmem.ProtectionORAM, Seed: 1})
	a, _ := mo.RunBenchmark(bench, requests)
	b, _ := ro.RunBenchmark(bench, requests)
	fmt.Fprintf(stdout, "\nObfusMem+Auth is %.1fx faster than the Path ORAM model on %s\n",
		obfusmem.Speedup(a, b), bench)

	// Dummy traffic bookkeeping: what obfuscation actually cost the memory.
	t := mo.Traffic()
	fmt.Fprintf(stdout, "\nObfusMem traffic: %d real reads, %d real writes, %d dummies dropped at memory,\n",
		t.RealReads, t.RealWrites, t.DroppedAtMemory)
	fmt.Fprintf(stdout, "%d substituted pairs, %d+%d AES pads (proc+mem), 0 extra PCM writes\n",
		t.SubstitutedPairs, t.PadsProcessor, t.PadsMemory)
	return 0
}
