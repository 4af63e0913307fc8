package system

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
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

// TestOpenLoopMergeMatchesSort checks the per-link merge against a stable
// sort of the concatenated logs by (time, channel, seq). Times come from a
// small range, so equal-time events across lanes and across one lane's two
// links are common.
func TestOpenLoopMergeMatchesSort(t *testing.T) {
	r := xrand.New(11)
	crossLane, crossLink := 0, 0
	for trial := 0; trial < 200; trial++ {
		lanes := make([]*openLane, 1+r.Intn(8))
		var runs [][]openWireEvent
		var all []openWireEvent
		for ch := range lanes {
			l := &openLane{ch: ch}
			var now [2]sim.Time
			for n := r.Intn(40); n > 0; n-- {
				link := r.Intn(2)
				now[link] += sim.Time(1 + r.Intn(3))
				l.record(link, now[link], r.Intn(200))
			}
			runs = append(runs, l.wire[reqLink], l.wire[respLink])
			all = append(append(all, l.wire[reqLink]...), l.wire[respLink]...)
		}
		want := slices.Clone(all)
		slices.SortStableFunc(want, func(a, b openWireEvent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.ch, b.ch), cmp.Compare(a.seq, b.seq))
		})
		got := mergeWire(runs)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merge differs from the sort:\n got  %v\n want %v", trial, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].at == got[i-1].at {
				if got[i].ch != got[i-1].ch {
					crossLane++
				} else {
					crossLink++
				}
			}
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
