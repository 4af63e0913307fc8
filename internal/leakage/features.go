// Wire-trace feature extraction: everything in this file is inference code
// and consumes only the attacker-visible attack.Wire view.
package leakage

import (
	"math"

	"obfusmem/internal/attack"
	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

// noneSymbol is the wire-feature symbol of "no packet observed": the value
// assigned when a request produced nothing visible on the bus (Path ORAM's
// perf model, or a truncated trace). Outside the packed feature range.
const noneSymbol uint64 = 1 << 10

// cmdIndices returns the wire indices of proc->mem command-bearing
// transfers — the request-side events an attacker counts and times.
func cmdIndices(wire []attack.Wire) []int {
	idx := make([]int, 0, len(wire))
	for i, w := range wire {
		if w.HasCmd && w.Dir == bus.ProcToMem {
			idx = append(idx, i)
		}
	}
	return idx
}

// gapBin discretizes an inter-arrival gap (ns) into one of eight
// geometric bins. The bin edges double from 16 ns, bracketing the PCM
// row-hit/row-miss latency split the clustering stage exploits.
func gapBin(ns float64) uint64 {
	edges := []float64{16, 32, 64, 128, 256, 1024, 4096}
	for b, e := range edges {
		if ns < e {
			return uint64(b)
		}
	}
	return uint64(len(edges))
}

// sizeClass maps a transfer's wire size onto a four-symbol alphabet:
// bare command, command+MAC, command+data, larger.
func sizeClass(size int) uint64 {
	switch {
	case size <= bus.CmdBytes:
		return 0
	case size <= bus.CmdBytes+bus.MACBytes:
		return 1
	case size <= bus.CmdBytes+bus.DataBytes:
		return 2
	default:
		return 3
	}
}

// wireSymbol discretizes one command transfer into a bounded feature
// symbol: channel pin, inter-arrival bin, size class, and a 3-bit fold of
// the command field. The fold reads command byte 7 — on a plaintext bus
// that byte carries address bits 15..8, and the fold keeps bits 12..10,
// the low bits of the 1 KB row index; under CTR encryption the same byte
// is uniform noise, so the fold contributes (in expectation) nothing.
// Keeping the alphabet small and bounded is what lets the Miller–Madow
// correction kill the residual small-sample bias.
func wireSymbol(w attack.Wire, prevAt sim.Time) uint64 {
	ch := uint64(w.Channel) & 3
	gap := gapBin((w.At - prevAt).Float64Nanos())
	size := sizeClass(w.Size)
	fold := uint64(w.Cmd[7]>>2) & 7
	return ch | gap<<2 | size<<5 | fold<<7
}

// requestSymbol discretizes one issued request for the MI estimate: the
// row-granular address bucket and the operation bit. 128 symbols, so both
// sides of the joint table stay well sampled at experiment scale. It reads
// the ground-truth request schedule — the MI estimate's defender-side
// marginal (the wire-side marginal is wireSymbol).
func requestSymbol(rq Issued) uint64 {
	sym := (rq.Addr / RowBytes) % 64 << 1
	if rq.Write {
		sym |= 1
	}
	return sym
}

// FeatureDim is the length of TraceFeatures vectors.
const FeatureDim = 8

// TraceFeatures summarises a wire trace as a fixed-length vector for
// workload identification: rate, inter-arrival shape, size mix, direction
// mix, and channel balance. A trace with no observable packets (Path ORAM)
// maps to the zero vector — by construction indistinguishable from any
// other such trace.
func TraceFeatures(wire []attack.Wire) []float64 {
	v := make([]float64, FeatureDim)
	cmds := cmdIndices(wire)
	if len(wire) == 0 || len(cmds) == 0 {
		return v
	}

	var gaps []float64
	for k := 1; k < len(cmds); k++ {
		gaps = append(gaps, (wire[cmds[k]].At - wire[cmds[k-1]].At).Float64Nanos())
	}
	var gapMean, gapVar float64
	for _, g := range gaps {
		gapMean += g
	}
	if len(gaps) > 0 {
		gapMean /= float64(len(gaps))
		for _, g := range gaps {
			gapVar += (g - gapMean) * (g - gapMean)
		}
		gapVar /= float64(len(gaps))
	}
	short := 0
	for _, g := range gaps {
		if g < gapMean/2 {
			short++
		}
	}

	var bytes float64
	var withData, toMem, ch0 int
	for _, w := range wire {
		bytes += float64(w.Size)
		if w.Dir == bus.ProcToMem {
			toMem++
			if w.Size > bus.CmdBytes+bus.MACBytes {
				withData++
			}
			if w.Channel == 0 {
				ch0++
			}
		}
	}

	window := (wire[len(wire)-1].At - wire[0].At).Float64Nanos()
	v[0] = float64(len(wire))
	if window > 0 {
		v[1] = float64(len(cmds)) / window * 1000 // cmd packets per microsecond
	}
	v[2] = gapMean
	if gapMean > 0 {
		v[3] = math.Sqrt(gapVar) / gapMean // coefficient of variation
	}
	if len(gaps) > 0 {
		v[4] = float64(short) / float64(len(gaps))
	}
	v[5] = bytes / float64(len(wire))
	if toMem > 0 {
		v[6] = float64(withData) / float64(toMem)
		v[7] = float64(ch0) / float64(toMem)
	}
	return v
}
