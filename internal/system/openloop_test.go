package system

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
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

// TestOpenLoopOperationalLaws checks each lane's report row and link
// counters against the pair shape at 1, 2, 4 and 8 lanes under every cover
// policy. A real request is one pair with one dummy half, a cover one pair
// with two, and every pair puts 3 packets on the wire, so per lane:
//
//	wire pkts = 3 x (reqs + covers)
//	dropped   = reqs + 2 x covers
//	pcm acc   = reqs
//	busy      = wire bytes x 78.125 ps (1000 ps / 12.8 GB/s)
//
// The busy law is exact: every packet is a multiple of 8 bytes, which take
// exactly 625 ps. The merged wire view has one gap fewer than it has
// packets.
func TestOpenLoopOperationalLaws(t *testing.T) {
	const psPer8Bytes = 625
	gapsNote := regexp.MustCompile(`over (\d+) gaps`)
	for _, channels := range []int{1, 2, 4, 8} {
		for _, policy := range []obfus.ChannelPolicy{obfus.PolicyNone, obfus.PolicyUNOPT, obfus.PolicyOPT} {
			cfg := DefaultOpenLoopConfig()
			cfg.Channels = channels
			cfg.Requests = 100
			cfg.Policy = policy
			cfg.Metrics = metrics.NewRegistry()
			res := RunOpenLoop(cfg)
			cell := func(r, c int) uint64 {
				v, err := strconv.ParseUint(res.Table.Cell(r, c), 10, 64)
				if err != nil {
					t.Fatalf("%d lanes, %v: row %d column %d: %v", channels, policy, r, c, err)
				}
				return v
			}
			totalPkts := uint64(0)
			for ch := 0; ch < channels; ch++ {
				reqs, covers, pkts, bytes, dropped, acc := cell(ch, 2), cell(ch, 3), cell(ch, 5), cell(ch, 6), cell(ch, 7), cell(ch, 8)
				id := fmt.Sprintf("%d lanes, %v, lane %d", channels, policy, ch)
				if pkts != 3*(reqs+covers) {
					t.Errorf("%s: %d wire packets for %d requests and %d covers", id, pkts, reqs, covers)
				}
				if dropped != reqs+2*covers {
					t.Errorf("%s: %d dummies dropped for %d requests and %d covers", id, dropped, reqs, covers)
				}
				if acc != reqs {
					t.Errorf("%s: %d PCM accesses for %d requests", id, acc, reqs)
				}
				sc := cfg.Metrics.Scope(names.PerChannel(names.ScopeBus, ch))
				if got := sc.Counter(names.BusBytes).Value(); got != bytes {
					t.Errorf("%s: report has %d wire bytes, bus counted %d", id, bytes, got)
				}
				busy := sc.Counter(names.BusReqBusyPS).Value() + sc.Counter(names.BusRespBusyPS).Value()
				if busy*8 != bytes*psPer8Bytes {
					t.Errorf("%s: links busy %d ps for %d bytes, want %d ps", id, busy, bytes, bytes*psPer8Bytes/8)
				}
				totalPkts += pkts
			}
			m := gapsNote.FindStringSubmatch(res.Table.String())
			if m == nil {
				t.Fatalf("%d lanes, %v: no gap count in the report notes", channels, policy)
			}
			if gaps, _ := strconv.ParseUint(m[1], 10, 64); gaps != totalPkts-1 {
				t.Errorf("%d lanes, %v: %d gaps over %d wire packets", channels, policy, gaps, totalPkts)
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
	// A wire event numbers its lane's packets in 32 bits, and a lane can
	// put 3·Channels·Requests packets on its wire. The check must come
	// before the logs are sized: at 16 bytes per event the request log of
	// this lane alone would take 32 GiB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustPanic("int32 packet bound", func() { RunOpenLoop(OpenLoopConfig{Channels: 1, Requests: 1 << 30}) })
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("int32 packet bound: %d bytes allocated before the panic", grew)
	}
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

// wireReference is summarizeWire's output rebuilt without its code: the
// lane-major runs concatenated with each event tagged by its lane, stable
// sorted by (time, lane, seq), hashed with hash/fnv, and the 16 ns gaps
// counted in a map whose cells are summed in sorted key order. crossLane
// and crossLink count adjacent equal-time events of different lanes and of
// one lane's two links.
type wireReference struct {
	digest               uint64
	gaps                 int
	entropy              float64
	crossLane, crossLink int
}

func referenceWireSummary(runs [][]openWireEvent) wireReference {
	type tagged struct {
		openWireEvent
		lane int
	}
	var all []tagged
	for r, run := range runs {
		for _, ev := range run {
			all = append(all, tagged{ev, r / 2})
		}
	}
	slices.SortStableFunc(all, func(a, b tagged) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.lane, b.lane), cmp.Compare(a.seq, b.seq))
	})
	var ref wireReference
	h := fnv.New64a()
	word := make([]byte, 8)
	counts := map[uint64]int{}
	for i, ev := range all {
		binary.LittleEndian.PutUint64(word, uint64(ev.at))
		h.Write(word)
		binary.LittleEndian.PutUint64(word, uint64(ev.lane)<<32|uint64(ev.bytes))
		h.Write(word)
		if i > 0 {
			counts[uint64(ev.at-all[i-1].at)/uint64(16*sim.Nanosecond)]++
			ref.gaps++
			if ev.at == all[i-1].at {
				if ev.lane != all[i-1].lane {
					ref.crossLane++
				} else {
					ref.crossLink++
				}
			}
		}
	}
	ref.digest = h.Sum64()
	if ref.gaps > 0 {
		keys := make([]uint64, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var s float64
		for _, k := range keys {
			s += float64(counts[k]) * math.Log2(float64(counts[k]))
		}
		ref.entropy = math.Log2(float64(ref.gaps)) - s/float64(ref.gaps)
	}
	return ref
}

// checkWireSummary runs summarizeWire on runs, each cut into chunks of
// chunkLen events, and fails unless its digest, gap count and gap entropy
// (bit for bit) match the reference.
func checkWireSummary(t *testing.T, runs [][]openWireEvent) wireReference {
	t.Helper()
	return checkChunkedWireSummary(t, runs, wireChunk)
}

func checkChunkedWireSummary(t *testing.T, runs [][]openWireEvent, chunkLen int) wireReference {
	t.Helper()
	ref := referenceWireSummary(runs)
	chunked := make([][][]openWireEvent, len(runs))
	for r, run := range runs {
		for len(run) > 0 {
			c := min(chunkLen, len(run))
			chunked[r] = append(chunked[r], run[:c])
			run = run[c:]
		}
	}
	digest, gaps := summarizeWire(chunked)
	if digest != ref.digest {
		t.Fatalf("summary digest %#x, sorted logs hash to %#x", digest, ref.digest)
	}
	if gaps.N() != ref.gaps || math.Float64bits(gaps.EntropyBits()) != math.Float64bits(ref.entropy) {
		t.Fatalf("summary has %d gaps, entropy %v; sorted logs have %d, %v",
			gaps.N(), gaps.EntropyBits(), ref.gaps, ref.entropy)
	}
	return ref
}

// TestOpenLoopMergeMatchesSort checks the streaming wire summary against
// referenceWireSummary. Times come from a small range, so equal-time events
// across lanes and across one lane's two links are common.
func TestOpenLoopMergeMatchesSort(t *testing.T) {
	r := xrand.New(11)
	crossLane, crossLink := 0, 0
	for trial := 0; trial < 200; trial++ {
		var runs [][]openWireEvent
		for ch := 1 + r.Intn(8); ch > 0; ch-- {
			l := &openLane{}
			var now [2]sim.Time
			for n := r.Intn(40); n > 0; n-- {
				link := r.Intn(2)
				now[link] += sim.Time(1+r.Intn(3)) * 8 * sim.Nanosecond
				l.record(link, now[link], r.Intn(200))
			}
			runs = append(runs, l.wire[reqLink], l.wire[respLink])
		}
		ref := checkWireSummary(t, runs)
		crossLane += ref.crossLane
		crossLink += ref.crossLink
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

// TestOpenLoopChunkedMerge checks the wire summary on logs cut into chunks
// of 1, 2, 3 and 7 events against referenceWireSummary, so every run's
// cursor crosses chunk boundaries, and checks that a lane's log keeps every
// event in record order in chunks that double up to wireChunk events, none
// of them grown by a copy.
func TestOpenLoopChunkedMerge(t *testing.T) {
	r := xrand.New(12)
	for trial := 0; trial < 100; trial++ {
		var runs [][]openWireEvent
		for ch := 1 + r.Intn(8); ch > 0; ch-- {
			l := &openLane{}
			var now [2]sim.Time
			for n := r.Intn(40); n > 0; n-- {
				link := r.Intn(2)
				now[link] += sim.Time(r.Intn(3)) * 8 * sim.Nanosecond
				l.record(link, now[link], r.Intn(200))
			}
			runs = append(runs, l.wire[reqLink], l.wire[respLink])
		}
		for _, chunkLen := range []int{1, 2, 3, 7} {
			checkChunkedWireSummary(t, runs, chunkLen)
		}
	}

	// A first chunk of a quarter wireChunk, then chunks of half and two of
	// wireChunk, then 5 events in the last.
	l := &openLane{}
	l.wire[reqLink] = make([]openWireEvent, 0, wireChunk/4)
	caps := []int{wireChunk / 4, wireChunk / 2, wireChunk, wireChunk}
	n := wireChunk/4 + wireChunk/2 + 2*wireChunk + 5
	for i := range n {
		l.record(reqLink, sim.Time(i), 72)
	}
	full, last := l.full[reqLink], l.wire[reqLink]
	if len(full) != len(caps) || len(last) != 5 || len(l.full[respLink]) != 0 {
		t.Fatalf("%d events logged as %d full chunks and %d in the last, want %d and 5", n, len(full), len(last), len(caps))
	}
	seq := int32(0)
	for i, c := range append(full, last) {
		if i < len(full) && (len(c) != caps[i] || cap(c) != caps[i]) {
			t.Fatalf("full chunk %d holds %d events in a capacity of %d, want %d in %d", i, len(c), cap(c), caps[i], caps[i])
		}
		for _, ev := range c {
			if ev.seq != seq {
				t.Fatalf("event %d of the log has seq %d", seq, ev.seq)
			}
			seq++
		}
	}
}

// FuzzSummarizeWire checks summarizeWire against referenceWireSummary on
// fuzzed logs. The first byte picks the lane count (1-8); then, per lane,
// one byte picks its event count and one byte per event picks the link
// (bit 0), a 0-3 step of 8 ns on that link's clock (bits 1-2; a zero step
// repeats the link's last time) and the packet size (bits 3-7). Every
// lane's clocks start at zero, so equal-time ties across lanes and across
// one lane's links are common. Lanes past the end of the input are empty.
func FuzzSummarizeWire(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 4, 0x12, 0x13, 0x02, 0x03, 4, 0x12, 0x13, 0x02, 0x03})
	f.Add([]byte{7, 3, 0x48, 0x49, 0x48, 0, 5, 0x11, 0x10, 0x11, 0x10, 0x11, 2, 0xfe, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		lanes := 1 + int(data[0]%8)
		data = data[1:]
		runs := make([][]openWireEvent, 0, 2*lanes)
		for ; lanes > 0; lanes-- {
			l := &openLane{}
			var now [2]sim.Time
			if len(data) > 0 {
				n := int(data[0] % 64)
				for data = data[1:]; n > 0 && len(data) > 0; n-- {
					b := data[0]
					data = data[1:]
					link := int(b & 1)
					now[link] += sim.Time(b>>1&3) * 8 * sim.Nanosecond
					l.record(link, now[link], int(b>>3)*8)
				}
			}
			runs = append(runs, l.wire[reqLink], l.wire[respLink])
		}
		checkWireSummary(t, runs)
	})
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
