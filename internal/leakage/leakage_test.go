package leakage

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"obfusmem/internal/attack"
	"obfusmem/internal/bus"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// cmdWire builds a proc->mem command transfer; when plain is set the
// address is encoded into the command field the way the unprotected
// backend transmits it (big-endian in bytes 1..8).
func cmdWire(at sim.Time, ch int, addr uint64, plain bool) attack.Wire {
	w := attack.Wire{
		At: at, Channel: ch, Dir: bus.ProcToMem,
		HasCmd: true, Size: bus.CmdBytes, Plaintext: plain,
	}
	if plain {
		for i := 0; i < 8; i++ {
			w.Cmd[1+i] = byte(addr >> (56 - 8*i))
		}
	}
	return w
}

func TestAlignToWire(t *testing.T) {
	ns := sim.Time(sim.Nanosecond)
	wire := []attack.Wire{
		cmdWire(10*ns, 0, 0, false),
		{At: 15 * ns, Dir: bus.MemToProc, Size: bus.DataBytes}, // not a command
		cmdWire(20*ns, 0, 0, false),
		cmdWire(30*ns, 0, 0, false),
	}
	issued := []Issued{{At: 5 * ns}, {At: 20 * ns}, {At: 25 * ns}, {At: 40 * ns}}
	got := AlignToWire(wire, issued)
	want := []int{0, 2, 3, -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AlignToWire = %v, want %v", got, want)
	}
}

func TestPlantAnchorsBudget(t *testing.T) {
	ns := sim.Time(sim.Nanosecond)
	n := 50
	wire := make([]attack.Wire, n)
	issued := make([]Issued, n)
	for i := 0; i < n; i++ {
		wire[i] = cmdWire(sim.Time(i)*10*ns, 0, 0, false)
		issued[i] = Issued{At: sim.Time(i) * 10 * ns, Addr: uint64(i) * RowBytes}
	}
	align := AlignToWire(wire, issued)
	anchors, anchored := PlantAnchors(wire, issued, align)

	if want := int(AnchorFraction * float64(n)); len(anchors) != want {
		t.Fatalf("planted %d anchors, want %d", len(anchors), want)
	}
	marked := 0
	for i, a := range anchored {
		if a {
			marked++
			if anchors[marked-1].WireIndex != align[i] || anchors[marked-1].Row != issued[i].Addr/RowBytes {
				t.Errorf("anchor %d does not match issued[%d]", marked-1, i)
			}
		}
	}
	if marked != len(anchors) {
		t.Fatalf("anchored marks %d requests, want %d", marked, len(anchors))
	}
}

// TestRecoverPlaintext: on an unprotected bus the pipeline parses the
// address straight off the wire — recovery is perfect at row granularity.
func TestRecoverPlaintext(t *testing.T) {
	ns := sim.Time(sim.Nanosecond)
	n := 40
	wire := make([]attack.Wire, n)
	issued := make([]Issued, n)
	for i := 0; i < n; i++ {
		addr := uint64(i%7) * 4096
		wire[i] = cmdWire(sim.Time(i)*20*ns, i%2, addr, true)
		issued[i] = Issued{At: sim.Time(i) * 20 * ns, Addr: addr}
	}
	align := AlignToWire(wire, issued)
	guesses := RecoverRows(wire, nil)
	score := ScoreRecovery(guesses, align, issued, make([]bool, n))
	if score.Accuracy != 1 || score.Scored != n {
		t.Fatalf("plaintext recovery = %+v, want accuracy 1 over %d", score, n)
	}
}

// TestRecoverEncrypted drives the anchored pipeline through both cluster
// branches: a short gap holds the last known row, a long gap extrapolates
// along the modal anchor stride.
func TestRecoverEncrypted(t *testing.T) {
	ns := sim.Time(sim.Nanosecond)
	wire := []attack.Wire{
		cmdWire(0, 0, 0, false),       // anchor: row 10
		cmdWire(10*ns, 0, 0, false),   // gap 10 (short) -> hold row 10
		cmdWire(1010*ns, 0, 0, false), // anchor: row 12
		cmdWire(2010*ns, 0, 0, false), // gap 1000 (long) -> stride +2 -> row 14
		cmdWire(3010*ns, 0, 0, false), // anchor: row 14
		cmdWire(3010*ns, 1, 0, false), // other channel, no anchor seen -> no guess
	}
	anchors := []Anchor{{WireIndex: 0, Row: 10}, {WireIndex: 2, Row: 12}, {WireIndex: 4, Row: 14}}
	g := RecoverRows(wire, anchors)

	wantRows := []uint64{10, 10, 12, 14, 14}
	for i, want := range wantRows {
		if !g[i].Guessed || g[i].Row != want {
			t.Errorf("guess[%d] = %+v, want row %d", i, g[i], want)
		}
	}
	if g[5].Guessed {
		t.Errorf("guess[5] = %+v, want unguessed (channel never anchored)", g[5])
	}
}

func TestInterArrivalThreshold(t *testing.T) {
	thr := interArrivalThreshold([]float64{10, 12, 100, 110})
	if thr <= 12 || thr >= 100 {
		t.Errorf("threshold %v does not separate the clusters", thr)
	}
	if thr := interArrivalThreshold([]float64{50, 50, 50}); thr <= 50 {
		t.Errorf("degenerate threshold %v should exceed the common gap", thr)
	}
	if thr := interArrivalThreshold(nil); thr != 0 {
		t.Errorf("empty threshold = %v, want 0", thr)
	}
}

func TestModalDelta(t *testing.T) {
	if d := modalDelta([]uint64{10, 12, 14, 16, 3}); d != 2 {
		t.Errorf("modalDelta = %d, want 2", d)
	}
	if d := modalDelta([]uint64{5}); d != 0 {
		t.Errorf("single-sample modalDelta = %d, want 0", d)
	}
	// Tie: deltas +1 and +3 appear once each; the smaller wins.
	if d := modalDelta([]uint64{4, 5, 8}); d != 1 {
		t.Errorf("tied modalDelta = %d, want 1", d)
	}
}

// TestRequestStreamMI: a plaintext wire is a deterministic function of the
// request stream, so plug-in MI equals H(wire symbol) exactly — 3 bits when
// the fold's 8 values are uniform. An empty wire trace carries nothing.
func TestRequestStreamMI(t *testing.T) {
	ns := sim.Time(sim.Nanosecond)
	n := 640
	wire := make([]attack.Wire, n)
	issued := make([]Issued, n)
	for i := 0; i < n; i++ {
		addr := uint64(i%64) * RowBytes
		// Start at one full period so even the first transfer's inter-arrival
		// gap lands in the same bin as the rest.
		at := sim.Time(i+1) * 20 * ns
		wire[i] = cmdWire(at, 0, addr, true)
		issued[i] = Issued{At: at, Addr: addr}
	}
	align := AlignToWire(wire, issued)
	mi := RequestStreamMI(wire, issued, align)
	if math.Abs(mi.PluginBitsPerRequest-3) > 1e-9 {
		t.Errorf("plaintext plug-in MI = %v bits, want 3", mi.PluginBitsPerRequest)
	}
	if mi.BitsPerRequest < 3 || mi.BitsPerRequest > 3.02 {
		t.Errorf("plaintext MM MI = %v bits, want 3 + small correction", mi.BitsPerRequest)
	}

	mi = RequestStreamMI(nil, issued, AlignToWire(nil, issued))
	if mi.BitsPerRequest != 0 || mi.PluginBitsPerRequest != 0 {
		t.Errorf("empty-wire MI = %+v, want zeros", mi)
	}
}

func TestTraceFeaturesEmpty(t *testing.T) {
	v := TraceFeatures(nil)
	if len(v) != FeatureDim {
		t.Fatalf("feature dim %d, want %d", len(v), FeatureDim)
	}
	for d, x := range v {
		if x != 0 {
			t.Errorf("empty trace feature[%d] = %v, want 0", d, x)
		}
	}
}

func TestClassifierAccuracy(t *testing.T) {
	sep := func(base float64) [][]float64 {
		return [][]float64{
			{base, 0, 0, 0, 0, 0, 0, 0},
			{base + 0.1, 0, 0, 0, 0, 0, 0, 0},
			{base - 0.1, 0, 0, 0, 0, 0, 0, 0},
		}
	}
	if acc := ClassifierAccuracy([][][]float64{sep(1), sep(10), sep(100)}); acc != 1 {
		t.Errorf("separable accuracy = %v, want 1", acc)
	}

	// Indistinguishable traces (Path ORAM: all-zero vectors) -> every fold
	// tie-breaks to workload 0 -> exactly chance.
	zero := make([][]float64, 3)
	for s := range zero {
		zero[s] = make([]float64, FeatureDim)
	}
	if acc := ClassifierAccuracy([][][]float64{zero, zero, zero, zero}); acc != 0.25 {
		t.Errorf("indistinguishable accuracy = %v, want chance 0.25", acc)
	}

	if acc := ClassifierAccuracy([][][]float64{{make([]float64, FeatureDim)}, {make([]float64, FeatureDim)}}); acc != 0.5 {
		t.Errorf("single-seed accuracy = %v, want chance", acc)
	}
}

// TestEvaluate checks the orchestrator wires the phases together, records
// one span per phase, and is deterministic (same inputs, same outputs).
func TestEvaluate(t *testing.T) {
	ns := sim.Time(sim.Nanosecond)
	n := 200
	wire := make([]attack.Wire, n)
	issued := make([]Issued, n)
	for i := 0; i < n; i++ {
		addr := uint64(i%32) * RowBytes
		wire[i] = cmdWire(sim.Time(i)*25*ns, i%2, addr, true)
		issued[i] = Issued{At: sim.Time(i) * 25 * ns, Addr: addr, Write: i%3 == 0}
	}

	rec := trace.New(1 << 10)
	ev := Evaluate(wire, issued, rec)
	if ev.WirePackets != n || ev.Anchors != int(AnchorFraction*float64(n)) {
		t.Fatalf("Evaluate bookkeeping = %+v", ev)
	}
	if ev.Recovery.Accuracy != 1 {
		t.Errorf("plaintext evaluation recovery = %v, want 1", ev.Recovery.Accuracy)
	}
	if ev.MI.BitsPerRequest <= 0 {
		t.Errorf("plaintext evaluation MI = %v, want > 0", ev.MI.BitsPerRequest)
	}

	want := map[names.Name]bool{
		names.SpanLeakFeatures: true, names.SpanLeakRecover: true,
		names.SpanLeakScore: true, names.SpanLeakMI: true,
	}
	for _, sp := range rec.Spans() {
		delete(want, names.Name(sp.Name))
	}
	if len(want) != 0 {
		t.Errorf("missing leakage phase spans: %v", want)
	}

	again := Evaluate(wire, issued, nil) // nil recorder must be safe
	if !reflect.DeepEqual(ev, again) {
		t.Errorf("Evaluate is not deterministic: %+v vs %+v", ev, again)
	}
}

type fakeSys struct {
	reads, writes, drains int
}

func (f *fakeSys) Read(at sim.Time, addr uint64) sim.Time  { f.reads++; return at + 1 }
func (f *fakeSys) Write(at sim.Time, addr uint64) sim.Time { f.writes++; return at + 1 }
func (f *fakeSys) Drain(at sim.Time)                       { f.drains++ }

func TestProbeRecordsAndForwards(t *testing.T) {
	fs := &fakeSys{}
	p := NewProbe(fs)
	p.Read(10, 0x1000)
	p.Write(20, 0x2040)
	p.Drain(30)

	if fs.reads != 1 || fs.writes != 1 || fs.drains != 1 {
		t.Fatalf("probe did not forward: %+v", fs)
	}
	want := []Issued{{At: 10, Addr: 0x1000}, {At: 20, Addr: 0x2040, Write: true}}
	if !reflect.DeepEqual(p.Issued(), want) {
		t.Fatalf("Issued = %+v, want %+v", p.Issued(), want)
	}
}

// TestProbeBytesPerRequest checks that a long run's probe allocates about
// twice its 24-byte entry per issued request: the entry in the probe's
// chunked log plus its copy in one Issued() call, not the several times that
// a slice grown by append allocates on its way to the same length.
func TestProbeBytesPerRequest(t *testing.T) {
	const requests = 100_000
	p := NewProbe(&fakeSys{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range requests {
		if i%3 == 0 {
			p.Write(sim.Time(i), uint64(i)*64)
		} else {
			p.Read(sim.Time(i), uint64(i)*64)
		}
	}
	issued := p.Issued()
	runtime.ReadMemStats(&after)
	if len(issued) != requests || issued[requests-1].At != requests-1 {
		t.Fatalf("Issued holds %d of %d requests, the last at %v", len(issued), requests, issued[len(issued)-1].At)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("%.1f bytes allocated per issued request, one Issued() included", per)
	if per > 52 {
		t.Errorf("probe allocates %.1f bytes per issued request with one Issued() call, want at most 52 (its 24-byte entry, logged and copied once)", per)
	}
}
