package system

import (
	"fmt"
	"testing"

	"obfusmem/internal/obfus"
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
}
