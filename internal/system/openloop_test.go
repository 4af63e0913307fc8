package system

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
	"obfusmem/internal/xrand"
)

// runOpen executes a small open-loop run.
func runOpen(policy obfus.ChannelPolicy) OpenLoopResult {
	cfg := DefaultOpenLoopConfig()
	cfg.Requests = 120
	cfg.Policy = policy
	return RunOpenLoop(cfg)
}

// TestOpenLoopCoverPolicy pins the Section 3.4 behaviour in the open-loop
// mode: UNOPT covers at least as much as OPT, and PolicyNone not at all.
func TestOpenLoopCoverPolicy(t *testing.T) {
	covers := func(policy obfus.ChannelPolicy) int {
		res := runOpen(policy)
		n := 0
		for r := 0; r < res.Table.Rows()-1; r++ {
			// covers column is index 3.
			var c int
			if _, err := fmt.Sscan(res.Table.Cell(r, 3), &c); err != nil {
				t.Fatalf("bad covers cell %q", res.Table.Cell(r, 3))
			}
			n += c
		}
		return n
	}
	none := covers(obfus.PolicyNone)
	opt := covers(obfus.PolicyOPT)
	unopt := covers(obfus.PolicyUNOPT)
	if none != 0 {
		t.Fatalf("PolicyNone injected %d covers", none)
	}
	if opt == 0 || unopt == 0 {
		t.Fatalf("cover traffic missing: opt=%d unopt=%d", opt, unopt)
	}
	if unopt < opt {
		t.Fatalf("UNOPT covered less than OPT: %d < %d", unopt, opt)
	}
}

// TestOpenLoopEventCount pins the event schedule: each real request is one
// arrival event, plus one cover-notification event when the lane has peers,
// whatever the policy decides.
func TestOpenLoopEventCount(t *testing.T) {
	for _, channels := range []int{1, 2, 4, 8} {
		for _, policy := range []obfus.ChannelPolicy{obfus.PolicyNone, obfus.PolicyUNOPT, obfus.PolicyOPT} {
			cfg := DefaultOpenLoopConfig()
			cfg.Channels = channels
			cfg.Requests = 50
			cfg.Policy = policy
			perReq := 1
			if channels > 1 {
				perReq = 2
			}
			if got, want := RunOpenLoop(cfg).EventsFired, uint64(channels*cfg.Requests*perReq); got != want {
				t.Errorf("%d lanes, policy %v: %d events fired, want %d", channels, policy, got, want)
			}
		}
	}
}

// TestOpenLoopRejectsBadConfig pins the constructor contracts.
func TestOpenLoopRejectsBadConfig(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero channels", func() { RunOpenLoop(OpenLoopConfig{Requests: 1}) })
	mustPanic("zero requests", func() { RunOpenLoop(OpenLoopConfig{Channels: 2}) })
	// CoverNeeded would run an undefined policy as UNOPT.
	mustPanic("undefined policy", func() { RunOpenLoop(OpenLoopConfig{Channels: 2, Requests: 1, Policy: obfus.PolicyOPT + 1}) })
	// The address mapper takes the channel bits from the address.
	mustPanic("non-power-of-two channels", func() { RunOpenLoop(OpenLoopConfig{Channels: 3, Requests: 1}) })
}

// TestOpenLoopAllocsIndependentOfRequests guards the open loop's
// allocation-free steady state: events, packets and the wire merge must not
// allocate per request. Quadrupling the requests of an 8-lane run may add
// only the amortised growth of the per-link logs and the event heap.
func TestOpenLoopAllocsIndependentOfRequests(t *testing.T) {
	allocs := func(requests int) float64 {
		cfg := DefaultOpenLoopConfig()
		cfg.Requests = requests
		return testing.AllocsPerRun(2, func() { RunOpenLoop(cfg) })
	}
	small, large := allocs(150), allocs(600)
	perReq := (large - small) / float64(8*(600-150))
	t.Logf("%.0f allocs at 150 requests/lane, %.0f at 600: %.4f per added request", small, large, perReq)
	if perReq >= 0.05 {
		t.Fatalf("open loop allocates %.3f per added request (%.0f allocs at 150 requests/lane, %.0f at 600), want < 0.05",
			perReq, small, large)
	}
}

// TestOpenLoopMergeMatchesSort checks the streaming wire summary against a
// stable sort of the concatenated logs by (time, channel, seq), hashed with
// hash/fnv and bucketed into its own histogram. Times come from a small
// range, so equal-time events across lanes and across one lane's two links
// are common.
func TestOpenLoopMergeMatchesSort(t *testing.T) {
	r := xrand.New(11)
	crossLane, crossLink := 0, 0
	word := make([]byte, 8)
	for trial := 0; trial < 200; trial++ {
		lanes := make([]*openLane, 1+r.Intn(8))
		var runs [][]openWireEvent
		var all []openWireEvent
		for ch := range lanes {
			l := &openLane{ch: ch}
			var now [2]sim.Time
			for n := r.Intn(40); n > 0; n-- {
				link := r.Intn(2)
				now[link] += sim.Time(1+r.Intn(3)) * 8 * sim.Nanosecond
				l.record(link, now[link], r.Intn(200))
			}
			runs = append(runs, l.wire[reqLink], l.wire[respLink])
			all = append(append(all, l.wire[reqLink]...), l.wire[respLink]...)
		}
		want := slices.Clone(all)
		slices.SortStableFunc(want, func(a, b openWireEvent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.ch, b.ch), cmp.Compare(a.seq, b.seq))
		})
		h := fnv.New64a()
		gaps := stats.NewHist()
		for i, ev := range want {
			binary.LittleEndian.PutUint64(word, uint64(ev.at))
			h.Write(word)
			binary.LittleEndian.PutUint64(word, uint64(ev.ch)<<32|uint64(ev.bytes))
			h.Write(word)
			if i > 0 {
				gaps.Add(uint64(ev.at-want[i-1].at) / uint64(16*sim.Nanosecond))
				if ev.at == want[i-1].at {
					if ev.ch != want[i-1].ch {
						crossLane++
					} else {
						crossLink++
					}
				}
			}
		}
		digest, gotGaps := summarizeWire(runs)
		if digest != h.Sum64() {
			t.Fatalf("trial %d: summary digest %#x, sorted logs hash to %#x", trial, digest, h.Sum64())
		}
		if gotGaps.N() != gaps.N() || math.Float64bits(gotGaps.EntropyBits()) != math.Float64bits(gaps.EntropyBits()) {
			t.Fatalf("trial %d: summary has %d gaps, entropy %v; sorted logs have %d, %v",
				trial, gotGaps.N(), gotGaps.EntropyBits(), gaps.N(), gaps.EntropyBits())
		}
	}
	if crossLane == 0 || crossLink == 0 {
		t.Fatalf("ties not exercised: %d across lanes, %d across links", crossLane, crossLink)
	}

	l := &openLane{}
	l.record(reqLink, 10, 72)
	l.record(respLink, 5, 72) // the other link's log is independent
	l.record(reqLink, 10, 72) // equal times keep the merge order (by seq)
	defer func() {
		if recover() == nil {
			t.Fatal("record accepted an arrival before the link's last one")
		}
	}()
	l.record(reqLink, 9, 72)
}

// BenchmarkRunOpenLoop times whole 8-lane OPT runs of 300 requests per lane,
// the shape of the bench harness's openloop-8ch cell, and reports host time
// per real request and engine events per run.
func BenchmarkRunOpenLoop(b *testing.B) {
	cfg := DefaultOpenLoopConfig()
	cfg.Requests = 300
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += RunOpenLoop(cfg).EventsFired
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Channels*cfg.Requests), "ns/req")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
