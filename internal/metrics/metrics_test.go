package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	s := r.Scope("bus")
	if s != nil {
		t.Fatal("nil registry must scope to nil")
	}
	c := s.Counter("packets")
	g := s.Gauge("depth")
	h := s.Histogram("lat", LatencyBucketsNS)
	c.Add(5)
	c.Inc()
	g.Set(3.5)
	g.SetMax(9)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

func TestScopingAndAggregation(t *testing.T) {
	r := NewRegistry()
	bus := r.Scope("bus")
	ch0 := bus.Scope("ch0")
	ch0.Counter("packets").Add(3)
	// Same fully-qualified name from a different scope chain aggregates.
	r.Scope("bus.ch0").Counter("packets").Add(2)
	snap := r.Snapshot()
	if got := snap.Counters["bus.ch0.packets"]; got != 5 {
		t.Fatalf("bus.ch0.packets = %d, want 5", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("peak")
	g.SetMax(4)
	g.SetMax(2)
	if g.Value() != 4 {
		t.Fatalf("peak = %v, want 4", g.Value())
	}
	g.Set(1)
	if g.Value() != 1 {
		t.Fatalf("after Set, peak = %v, want 1", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{5, 10, 50, 150, 1e6} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["lat"]
	// Bucket 0: <=10 (5, 10); bucket 1: <=100 (50); overflow: 150, 1e6.
	want := []uint64{2, 1, 2}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if snap.Min != 5 || snap.Max != 1e6 {
		t.Fatalf("min/max = %v/%v, want 5/1e6", snap.Min, snap.Max)
	}
	wantMean := (5 + 10 + 50 + 150 + 1e6) / 5.0
	if math.Abs(snap.Mean-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", snap.Mean, wantMean)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := r.Scope("sys")
			for i := 0; i < each; i++ {
				sc.Counter("ops").Inc()
				sc.Gauge("hwm").SetMax(float64(w*each + i))
				sc.Histogram("lat", LatencyBucketsNS).Observe(float64(i % 300))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["sys.ops"]; got != workers*each {
		t.Fatalf("ops = %d, want %d", got, workers*each)
	}
	if got := snap.Histograms["sys.lat"].Count; got != workers*each {
		t.Fatalf("lat count = %d, want %d", got, workers*each)
	}
	if got := snap.Gauges["sys.hwm"]; got != workers*each-1 {
		t.Fatalf("hwm = %v, want %d", got, workers*each-1)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Scope("pcm.ch0").Counter("row_hits").Add(7)
	r.Scope("pcm.ch0").Histogram("access_ns", LatencyBucketsNS).Observe(73.75)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if snap.Counters["pcm.ch0.row_hits"] != 7 {
		t.Fatalf("round-tripped counter = %d, want 7", snap.Counters["pcm.ch0.row_hits"])
	}
	h, ok := snap.Histograms["pcm.ch0.access_ns"]
	if !ok || h.Count != 1 || len(h.Counts) != len(h.Bounds)+1 {
		t.Fatalf("round-tripped histogram wrong: %+v", h)
	}
	// Deterministic export: same state, same bytes.
	var buf2 bytes.Buffer
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two snapshots of identical state differ")
	}
}

// TestInstrumentsZeroAllocs is the zero-allocation contract of the
// instrument updates: components call them unconditionally on every
// simulated request, so an allocation here multiplies into every datapath.
// bench-smoke runs this in CI.
func TestInstrumentsZeroAllocs(t *testing.T) {
	sc := NewRegistry().Scope("bus")
	c := sc.Counter("packets")
	g := sc.Gauge("depth")
	h := sc.Histogram("lat", LatencyBucketsNS)
	v := 0.0
	cases := []struct {
		name string
		op   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { v++; g.Set(v) }},
		{"Gauge.SetMax", func() { v++; g.SetMax(v) }},
		{"Histogram.Observe", func() { v += 37; h.Observe(math.Mod(v, 20000)) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}
