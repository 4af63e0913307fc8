package palermo

import (
	"reflect"
	"testing"

	"obfusmem/internal/bus"
	"obfusmem/internal/memctl"
	"obfusmem/internal/pcm"
	"obfusmem/internal/sim"
	"obfusmem/internal/xrand"
)

// runOutcome is everything a run of the controller reports outside the
// wire bytes.
type runOutcome struct {
	done  []sim.Time
	ok    []bool
	stats Stats
	bus   []bus.ChannelStats
	mem   []memctl.ChannelStats
	pcm   pcm.Stats
}

// runStream drives one fixed random access stream through a fresh
// two-channel controller. tap, when non-nil, is attached to the bus as an
// observer before the first access.
func runStream(tap bus.Observer) runOutcome {
	b := bus.New(bus.DefaultConfig(2))
	if tap != nil {
		b.AttachObserver(tap)
	}
	mem := memctl.New(memctl.DefaultConfig(2))
	c := New(Config{}, b, mem, xrand.New(5))
	r := xrand.New(9)
	var out runOutcome
	at := sim.Time(0)
	for i := 0; i < 1500; i++ {
		at += sim.Time(r.Intn(int(60 * sim.Nanosecond)))
		done, ok := c.Access(at, r.Uint64n(memctl.Capacity)&^63, r.Bool())
		out.done = append(out.done, done)
		out.ok = append(out.ok, ok)
	}
	c.Drain(at)
	out.stats = c.Stats()
	out.bus = b.Stats()
	out.mem = mem.Stats()
	out.pcm = mem.TotalPCMStats()
	return out
}

// TestSealOnDemand: the controller seals command packets only when the bus
// is exposed. A bare bus and a bus with a no-op observer must produce the
// same timing, loss and counters, and on the observed bus every command
// packet must carry its sealed bytes.
func TestSealOnDemand(t *testing.T) {
	bare := runStream(nil)
	var cmds, unsealed int
	observed := runStream(bus.ObserverFunc(func(_ sim.Time, p *bus.Packet) {
		if !p.HasCmd {
			return
		}
		cmds++
		if p.CmdCipher == ([bus.CmdBytes]byte{}) {
			unsealed++
		}
	}))
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("bare bus and observed bus disagree:\nbare     %+v\nobserved %+v", bare, observed)
	}
	if cmds == 0 || unsealed != 0 {
		t.Errorf("%d of %d observed command packets carry a zero CmdCipher", unsealed, cmds)
	}
	if want := observed.stats.PathReads + observed.stats.EvictWrites; uint64(cmds) != want {
		t.Errorf("observed %d command packets, controller issued %d", cmds, want)
	}
}
