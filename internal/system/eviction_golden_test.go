package system

import (
	"fmt"
	"testing"

	"obfusmem/internal/cpu"
	"obfusmem/internal/workload"
)

// evictionGolden pins one closed-loop run long enough for the counter cache
// (256 KB, 4096 counter blocks) to fill and write back victims: an FNV-64a
// digest of its cpu.Result, its ctrmode.Stats and its PCM wear accounting.
type evictionGolden struct {
	backend string
	bench   string
	digest  uint64
}

// evictionRequests is the request count at which mcf and soplex overflow
// the counter cache; the 5000-request suite goldens see no write-back.
const evictionRequests = 100_000

// evictionGoldens was recorded with the stamp-LRU tag store, per-page
// counter objects and the uint64 wear map; the flat tables must reproduce it.
var evictionGoldens = []evictionGolden{
	{"encrypt-only", "mcf", 0xf3550d565d4fc66f},
	{"encrypt-only", "soplex", 0x7fe140474146ab6d},
	{"obfusmem-auth", "mcf", 0x7e2d5cc80ab8e0ea},
	{"obfusmem-auth", "soplex", 0x3bf36bf0387f96ed},
}

// TestEvictionPathGolden holds the counter-cache eviction path, the page
// counters and the PCM wear table bit-identical at one channel: every run
// must write back counter blocks, and its digest must match.
func TestEvictionPathGolden(t *testing.T) {
	for _, g := range evictionGoldens {
		p, err := workload.ByName(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		s := New(DefaultConfig(g.backend))
		res := cpu.Run(p, evictionRequests, s, cpu.DefaultConfig(), 42)
		st := s.Encryption().Stats()
		if st.CtrWritebacks == 0 {
			t.Errorf("%s/%s: no counter write-backs in %d requests", g.backend, g.bench, evictionRequests)
		}
		dev := s.Memory().Device(0)
		text := fmt.Sprintf("%+v|%+v|%d %d %d", res, st,
			dev.Stats().ArrayWrites, dev.MaxWear(), dev.WornRows())
		if got := fnv64([]byte(text)); got != g.digest {
			t.Errorf("%s/%s: digest %#016x, want %#016x\n%s", g.backend, g.bench, got, g.digest, text)
		}
	}
}
