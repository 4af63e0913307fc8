package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// spec is one benchmark workload: a closed-loop grid of backends x SPEC
// profiles, or the open-loop sharded scenario. A round runs every cell of
// the grid once, each on a fresh machine.
type spec struct {
	name     string
	why      string
	backends []string
	profiles []string // nil means all fifteen SPEC2006 profiles
	channels int
	requests int // requests per cell; per lane on the open-loop workload
	workers  int // exp.RunJobs workers; 2 equals nproc on the reference box
	// roundsPerS is how many rounds one second of the timed phase holds on
	// the reference box in its fast state. It turns -seconds into a fixed
	// round count, so two commits always do identical work.
	roundsPerS float64
	observed   bool // attach registry, span recorder, bus observer and leakage probe
	openLoop   bool // system.RunOpenLoop instead of closed-loop cells
}

var workloads = []spec{
	{
		name:     "suite",
		why:      "the Table 3 and Fig 4 grid users regenerate, plus the post-paper Palermo backend",
		backends: []string{"unprotected", "encrypt-only", "palermo", "oram", "obfusmem-auth"},
		channels: 1, requests: 8000, workers: 2, roundsPerS: 2.5,
	},
	{
		name:     "obfus-dense",
		why:      "highest-MPKI profiles, so the obfus datapath (aes, md5sim, bus, memctl, pcm) dominates",
		backends: []string{"obfusmem-auth"},
		profiles: []string{"mcf", "milc", "soplex", "gems", "bwaves"},
		channels: 1, requests: 8000, workers: 1, roundsPerS: 8,
	},
	{
		name:     "writeback-heavy",
		why:      "two thirds writebacks: EncryptWriteback, substitute-real pairing and PCM array writes",
		backends: []string{"obfusmem-auth"},
		profiles: []string{"lbm", "zeus"},
		channels: 1, requests: 8000, workers: 1, roundsPerS: 20,
	},
	{
		name:     "observed",
		why:      "metrics, span tracing, bus observer and leakage scoring on a 2-channel machine",
		backends: []string{"obfusmem-auth"},
		profiles: []string{"milc", "mcf", "omnetpp"},
		channels: 2, requests: 2000, workers: 1, roundsPerS: 2.2, observed: true,
	},
	{
		name:     "openloop-8ch",
		why:      "the only workload on the sharded engine: 8-channel OPT open loop at 2 shards",
		channels: 8, requests: 300, workers: 1, roundsPerS: 9, openLoop: true,
	},
}

// minCells keeps at least ten cells beyond ns_per_req_p90.
const minCells = 100

func lookup(name string) (*spec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// profileList resolves the workload's profile names; the table above is
// static, so an unknown name is a bug.
func (w *spec) profileList() []workload.Profile {
	if w.profiles == nil {
		return workload.SPEC2006()
	}
	out := make([]workload.Profile, len(w.profiles))
	for i, name := range w.profiles {
		p, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

func (w *spec) cellsPerRound() int {
	if w.openLoop {
		return 1
	}
	return len(w.backends) * len(w.profileList())
}

// rounds is the run length: a function of -seconds alone, never of how
// fast the host happens to be.
func (w *spec) rounds(o options) int {
	if o.rounds > 0 {
		return o.rounds
	}
	r := int(math.Ceil(float64(o.seconds) * w.roundsPerS))
	per := w.cellsPerRound()
	return max(r, (minCells+per-1)/per)
}

// n is the request count per cell (per lane on the open-loop workload).
func (w *spec) n(o options) int {
	if o.requests > 0 {
		return o.requests
	}
	return w.requests
}

// cell is one fresh machine x one profile x one round. The open-loop
// workload has one cell per round and no backend.
type cell struct {
	round   int
	backend string
	profile workload.Profile
}

// warmupRound is the round index of the untimed warm-up cells; timed rounds
// count up from 0, so it never collides with one.
const warmupRound = -1

// cells lists a round's cells, profile-major so the cells of one profile
// (which share a request stream) run back to back and each round ends on a
// mix of backends rather than a block of the slowest one.
func (w *spec) cells(round int) []cell {
	if w.openLoop {
		return []cell{{round: round}}
	}
	var out []cell
	for _, p := range w.profileList() {
		for _, b := range w.backends {
			out = append(out, cell{round: round, backend: b, profile: p})
		}
	}
	return out
}

func (c cell) key() string {
	if c.backend == "" {
		return fmt.Sprintf("%d open-loop", c.round)
	}
	return fmt.Sprintf("%d %s/%s", c.round, c.backend, c.profile.Name)
}

// Seed derivation (written down in README.md):
//
//	roundSeed   = Mix64(seed ^ Mix64(round+1))
//	streamSeed  = roundSeed ^ FNV-1a-64(profile name)
//	machineSeed = Mix64(streamSeed + 1)
//
// The backend is not an input, so every backend of a round sees the same
// request stream for a profile and suite overheads are paired comparisons.
func roundSeed(seed uint64, round int) uint64 {
	return xrand.Mix64(seed ^ xrand.Mix64(uint64(int64(round)+1)))
}

func streamSeed(seed uint64, c cell) uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.profile.Name))
	return roundSeed(seed, c.round) ^ h.Sum64()
}

func machineSeed(seed uint64, c cell) uint64 { return xrand.Mix64(streamSeed(seed, c) + 1) }
