package obfus

import (
	"reflect"
	"strings"
	"testing"

	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// TestValuePathMetricsAndSpans sends one read and one write through the
// timing-only entry points of one controller and through the block entry
// points of its twin. Carrying a block must not change what the
// instruments see: the obfus.* counters and the recorded spans must match.
// Substitute-real pairing is off because a value write bypasses its queue
// by design.
func TestValuePathMetricsAndSpans(t *testing.T) {
	type span struct {
		tid, name  string
		begin, end sim.Time
	}
	run := func(value bool) (map[string]uint64, []span) {
		cfg := DefaultAuth()
		cfg.SubstituteReal = false
		cfg.Metrics = metrics.NewRegistry()
		cfg.Trace = trace.New(0)
		r := newRig(t, cfg, 1)
		var rd, wr *memctl.Block
		if value {
			rd, wr = new(memctl.Block), &memctl.Block{1, 2, 3}
		}
		done, ok := r.ctrl.ReadBlock(0, 0x1000, rd)
		if !ok {
			t.Fatal("read failed without an attacker")
		}
		r.ctrl.WriteBlock(done, 0x2000, done, wr)
		counters := map[string]uint64{}
		for k, v := range cfg.Metrics.Snapshot().Counters {
			if strings.HasPrefix(k, string(names.ScopeObfus)+".") {
				counters[k] = v
			}
		}
		var spans []span
		for _, s := range cfg.Trace.Spans() {
			spans = append(spans, span{s.TID, s.Name, s.Begin, s.End})
		}
		return counters, spans
	}
	timingCtrs, timingSpans := run(false)
	valueCtrs, valueSpans := run(true)
	if timingCtrs[string(names.ScopeObfus)+"."+string(names.ObfusRealReads)] != 1 {
		t.Fatalf("timing path counted no real read: %v", timingCtrs)
	}
	if !reflect.DeepEqual(timingCtrs, valueCtrs) {
		t.Errorf("obfus counters differ:\n timing %v\n value  %v", timingCtrs, valueCtrs)
	}
	if !reflect.DeepEqual(timingSpans, valueSpans) {
		t.Errorf("spans differ (%d timing, %d value):\n timing %v\n value  %v",
			len(timingSpans), len(valueSpans), timingSpans, valueSpans)
	}
}
