package obfus

import (
	"reflect"
	"strings"
	"testing"

	"obfusmem/internal/aes"
	"obfusmem/internal/bus"
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

// TestSymmetricValueWritePads pins the data pads of a symmetric value
// write. A symmetric slot group reserves five counters, one command pad
// then four data pads, so the wire payload must be the block XORed with
// the pads at padBase+1..+4. The pads are recomputed here from the rig's
// channel key, independently of the controller's engines.
func TestSymmetricValueWritePads(t *testing.T) {
	cfg := DefaultAuth()
	cfg.Symmetric = true
	r := newRig(t, cfg, 1)
	var writes []bus.Packet
	r.bus.AttachObserver(bus.ObserverFunc(func(at sim.Time, p *bus.Packet) {
		if p.Dir == bus.ProcToMem && p.Type == bus.Write {
			cp := *p
			cp.Data = append([]byte(nil), p.Data...)
			writes = append(writes, cp)
		}
	}))
	var blk memctl.Block
	for i := range blk {
		blk[i] = byte(7*i + 1)
	}
	// A read first, so the write's group does not start at counter zero.
	r.ctrl.Read(0, 0x40)
	r.ctrl.WriteBlock(sim.Microsecond, 0x80, sim.Microsecond, &blk)
	if len(writes) != 1 {
		t.Fatalf("saw %d write requests on the wire, want 1", len(writes))
	}
	w := writes[0]
	if w.Counter != 5 {
		t.Fatalf("write's slot group starts at counter %d, want 5 (after one 5-counter group)", w.Counter)
	}

	key := [16]byte{0: 1, 15: 0xA5} // newRig's channel-0 key
	cipher, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	ctr := aes.NewCTR(cipher)
	want := blk
	for i := 0; i < 4; i++ {
		pad := ctr.Pad(aes.IV{ID: 0, Counter: w.Counter + 1 + uint64(i)})
		pad.XOR(want[16*i : 16*i+16])
	}
	if string(w.Data) != string(want[:]) {
		t.Fatalf("wire payload is not the block under pads padBase+1..+4:\n got  %x\n want %x", w.Data, want)
	}
	var got memctl.Block
	if _, ok := r.ctrl.ReadBlock(2*sim.Microsecond, 0x80, &got); !ok || got != blk {
		t.Fatalf("symmetric value round trip: ok=%v, got %x want %x", ok, got[:8], blk[:8])
	}
}
