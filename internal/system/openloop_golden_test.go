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
// any engine change must reproduce it.
var openLoopGoldens = []openLoopGolden{
	{obfus.PolicyNone, 42, 0x6d21258d05cd1d02, 1.3641754824451837, 9600, 0x6451ff77b5bda197, 0x6fb0e7801c0e667d},
	{obfus.PolicyNone, 7, 0x1b90bb3ed4820c1b, 1.4001965960201375, 9600, 0x3606a7f1a7efef10, 0x2b5e14d22da6f829},
	{obfus.PolicyOPT, 42, 0x4ffa1f1f30fd0e07, 0.8157559048135266, 9600, 0x8dd8741373b5b756, 0x85022a94ac0081bf},
	{obfus.PolicyOPT, 7, 0x06ced8771502b477, 0.8190890589627049, 9600, 0x2d6a0d92075f1528, 0x571e5d2a15a3369b},
	{obfus.PolicyUNOPT, 42, 0x75d6573d35a83b26, 0.23001913188027068, 9600, 0x2948e13274d18965, 0x0a87c276f03ba989},
	{obfus.PolicyUNOPT, 7, 0x07f560ae4f54ae1e, 0.24029273861216183, 9600, 0x8f5ee451a1567e1e, 0xcf93e0e6f842b1ec},
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
