package system

import (
	"bytes"
	"hash/fnv"
	"testing"

	"obfusmem/internal/metrics"
	"obfusmem/internal/obfus"
)

// openLoopGolden pins one open-loop run's observable output: the merged wire
// digest, the gap-entropy score, the event count, and FNV-64a hashes of the
// report CSV and of the metrics snapshot JSON.
type openLoopGolden struct {
	policy  obfus.ChannelPolicy
	seed    uint64
	digest  uint64
	entropy float64
	fired   uint64
	csv     uint64
	metrics uint64
}

// openLoopGoldens was recorded before the open loop moved onto sim.Engine;
// any engine change must reproduce its digest, entropy, CSV and metrics
// columns. The metrics column was re-recorded when histogram sums became
// exact integers of thousandths (the JSON sums lost their float rounding
// tails); the other columns did not move. The fired column counts engine events (an arrival and one cover
// notification per real request), so it moves only with the event schedule.
var openLoopGoldens = []openLoopGolden{
	{obfus.PolicyNone, 42, 0x6d21258d05cd1d02, 1.3641754824451837, 2400, 0x6451ff77b5bda197, 0x45234ce23c2e9406},
	{obfus.PolicyNone, 7, 0x1b90bb3ed4820c1b, 1.4001965960201375, 2400, 0x3606a7f1a7efef10, 0x640c6b840d87e2ac},
	{obfus.PolicyOPT, 42, 0x4ffa1f1f30fd0e07, 0.8157559048135266, 2400, 0x8dd8741373b5b756, 0x943779e542a82ee0},
	{obfus.PolicyOPT, 7, 0x06ced8771502b477, 0.8190890589627049, 2400, 0x2d6a0d92075f1528, 0xc540baa458137ed0},
	{obfus.PolicyUNOPT, 42, 0x75d6573d35a83b26, 0.23001913188027068, 2400, 0x2948e13274d18965, 0x0a87c276f03ba989},
	{obfus.PolicyUNOPT, 7, 0x07f560ae4f54ae1e, 0.24029273861216183, 2400, 0x8f5ee451a1567e1e, 0x57871eedc56ff2ff},
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestOpenLoopGolden holds the 8-channel open loop bit-identical across
// engine refactors, for every cover policy and two seeds.
func TestOpenLoopGolden(t *testing.T) {
	for _, g := range openLoopGoldens {
		cfg := DefaultOpenLoopConfig()
		cfg.Requests = 150
		cfg.Seed = g.seed
		cfg.Policy = g.policy
		cfg.Metrics = metrics.NewRegistry()
		res := RunOpenLoop(cfg)
		var snap bytes.Buffer
		if err := cfg.Metrics.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		got := openLoopGolden{g.policy, g.seed, res.WireDigest, res.GapEntropyBits, res.EventsFired,
			fnv64([]byte(res.Table.CSV())), fnv64(snap.Bytes())}
		if got != g {
			t.Errorf("policy=%v seed=%d:\n got  %#x %v %d %#x %#x\n want %#x %v %d %#x %#x",
				g.policy, g.seed, got.digest, got.entropy, got.fired, got.csv, got.metrics,
				g.digest, g.entropy, g.fired, g.csv, g.metrics)
		}
	}
}

// openLoopLaneGolden pins one open-loop run at a given lane count: the wire
// digest, the gap-entropy score, and FNV-64a hashes of the report CSV and of
// the metrics snapshot JSON. It holds no event count, so a change to how the
// run is scheduled that keeps every observable must pass it unedited.
type openLoopLaneGolden struct {
	channels int
	policy   obfus.ChannelPolicy
	digest   uint64
	entropy  float64
	csv      uint64
	metrics  uint64
}

// openLoopLaneGoldens covers the lane counts TestOpenLoopGolden does not:
// 1, 2 and 4 lanes under both cover policies, seed 42, 150 requests per
// lane. A 1-lane run has no peer to cover, so its two rows agree. Its
// metrics column was re-recorded with openLoopGoldens'.
var openLoopLaneGoldens = []openLoopLaneGolden{
	{1, obfus.PolicyUNOPT, 0x97859673dfbf6889, 0.693338462486631, 0xfe033ac73ef899f9, 0x92a1c96a013d6791},
	{1, obfus.PolicyOPT, 0x97859673dfbf6889, 0.693338462486631, 0xfe033ac73ef899f9, 0x92a1c96a013d6791},
	{2, obfus.PolicyUNOPT, 0x07482dd3d9cc1cf4, 0.022799487351987224, 0x6920d825c1915db5, 0x0b4d0c103b3767d0},
	{2, obfus.PolicyOPT, 0x9c1a26a63e28579a, 0.5693618625875487, 0x9a44bdd148b073fd, 0xf1039ee053017c96},
	{4, obfus.PolicyUNOPT, 0x006fb4b1cb31f1b6, 0.003682754666808563, 0xcd9fe939f9394a36, 0xa454751fb0d98a9b},
	{4, obfus.PolicyOPT, 0x463fade4398289ca, 0.247498974461271, 0x95b128d15526a05a, 0xc0a04a3f6cd5a38f},
}

// TestOpenLoopLaneCountGolden holds the open loop bit-identical at 1, 2 and
// 4 lanes.
func TestOpenLoopLaneCountGolden(t *testing.T) {
	for _, g := range openLoopLaneGoldens {
		cfg := DefaultOpenLoopConfig()
		cfg.Channels = g.channels
		cfg.Requests = 150
		cfg.Policy = g.policy
		cfg.Metrics = metrics.NewRegistry()
		res := RunOpenLoop(cfg)
		var snap bytes.Buffer
		if err := cfg.Metrics.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		got := openLoopLaneGolden{g.channels, g.policy, res.WireDigest, res.GapEntropyBits,
			fnv64([]byte(res.Table.CSV())), fnv64(snap.Bytes())}
		if got != g {
			t.Errorf("channels=%d policy=%v:\n got  %#x %v %#x %#x\n want %#x %v %#x %#x",
				g.channels, g.policy, got.digest, got.entropy, got.csv, got.metrics,
				g.digest, g.entropy, g.csv, g.metrics)
		}
	}
}
