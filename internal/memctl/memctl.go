// Package memctl implements the memory-side controller logic: RoRaBaChCo
// address mapping (Table 2), per-channel PCM devices, and access scheduling.
// In an ObfusMem system this logic lives in the logic layer of the 3D/2.5D
// memory stack, behind the cryptographic engines; in an unprotected system
// it is an ordinary controller.
//
// Scheduling model: requests reach the controller in bus-delivery order and
// are issued to banks as they arrive; row-buffer locality, bank-level
// parallelism, and asymmetric PCM write costs come from the pcm package.
// Writes are posted: the requester does not wait for write completion, but
// writes still occupy banks and therefore delay later reads (write-induced
// interference, the dominant PCM scheduling effect).
package memctl

import (
	"fmt"
	"math/bits"

	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/pcm"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// Config describes the mapped memory system: Channels PCM devices, each
// with the Table 2 geometry and timing, behind a fixed RoRaBaChCo mapping.
// A decoded row is the physical row; there is no remapping layer.
type Config struct {
	Channels int
	PCM      pcm.Config
	// Metrics, when non-nil, receives per-channel controller counters
	// ("memctl.chN" scope) and per-channel PCM device instruments
	// ("pcm.chN" scope). Nil disables.
	Metrics *metrics.Registry
	// Trace, when non-nil, records controller decode instants and (via the
	// per-channel PCM devices) bank wait/access spans. Nil disables.
	Trace *trace.Recorder
}

// Capacity is the machine's physical address space (Table 2: 8 GB).
// Requests wrap into it, and random dummy and cover addresses are drawn
// from it.
const Capacity uint64 = 8 << 30

// DefaultConfig matches Table 2 with a configurable channel count.
func DefaultConfig(channels int) Config {
	return Config{Channels: channels, PCM: pcm.DefaultConfig()}
}

// Coords is a fully decoded physical location.
type Coords struct {
	Channel int
	Rank    int
	Bank    int
	Row     int64
	Col     int
}

// Mapper performs RoRaBaChCo address decomposition: reading the mnemonic
// from most- to least-significant bits of the block address, Row | Rank |
// Bank | Channel | Column.
type Mapper struct {
	blockShift uint // log2(block size)
	colBits    uint
	chanBits   uint
	bankBits   uint
	rankBits   uint
	channels   int
}

// NewMapper builds a mapper for the configuration. Channel count must be a
// power of two (1, 2, 4, 8 in the paper's sweeps).
func NewMapper(cfg Config) *Mapper {
	if cfg.Channels <= 0 || cfg.Channels&(cfg.Channels-1) != 0 {
		panic(fmt.Sprintf("memctl: channel count %d not a power of two", cfg.Channels))
	}
	return &Mapper{
		blockShift: uint(bits.TrailingZeros(pcm.BlockBytes)),
		colBits:    uint(bits.TrailingZeros(pcm.BlocksPerRow)),
		chanBits:   uint(bits.TrailingZeros(uint(cfg.Channels))),
		bankBits:   uint(bits.TrailingZeros(pcm.BanksPerRank)),
		rankBits:   uint(bits.TrailingZeros(pcm.Ranks)),
		channels:   cfg.Channels,
	}
}

// Decode splits a byte address into physical coordinates.
func (m *Mapper) Decode(addr uint64) Coords {
	b := addr >> m.blockShift
	col := b & ((1 << m.colBits) - 1)
	b >>= m.colBits
	ch := b & ((1 << m.chanBits) - 1)
	b >>= m.chanBits
	bank := b & ((1 << m.bankBits) - 1)
	b >>= m.bankBits
	rank := b & ((1 << m.rankBits) - 1)
	b >>= m.rankBits
	return Coords{
		Channel: int(ch),
		Rank:    int(rank),
		Bank:    int(bank),
		Row:     int64(b),
		Col:     int(col),
	}
}

// ChannelOf returns only the channel of an address (the Session Key Table
// lookup path, Fig 3 step 1b). Channel routing is wire-visible by design:
// per-channel cover traffic (Section 3.4) makes each channel's stream
// independent of which addresses map to it.
func (m *Mapper) ChannelOf(addr uint64) int {
	return int((addr >> (m.blockShift + m.colBits)) & ((1 << m.chanBits) - 1))
}

// Channels returns the channel count.
func (m *Mapper) Channels() int { return m.channels }

// WithChannel returns addr with its channel field replaced by ch: the
// open-loop scenario uses it to pin a generated address onto the lane whose
// workload stream produced it.
func (m *Mapper) WithChannel(addr uint64, ch int) uint64 {
	shift := m.blockShift + m.colBits
	mask := uint64((1<<m.chanBits)-1) << shift
	return addr&^mask | (uint64(ch)<<shift)&mask
}

// ChannelStats counts per-channel controller activity.
type ChannelStats struct {
	Reads  uint64
	Writes uint64
	// DroppedDummies counts fixed-address dummy requests discarded before
	// touching PCM (Observation 2).
	DroppedDummies uint64
}

// chanMetrics is one channel's controller-level instrument set; the zero
// value is the disabled state.
type chanMetrics struct {
	reads          *metrics.Counter
	writes         *metrics.Counter
	droppedDummies *metrics.Counter
}

// Controller is the memory-side access engine: one PCM device per channel.
type Controller struct {
	mapper  *Mapper
	devices []*pcm.Device
	stats   []ChannelStats
	met     []chanMetrics
	tr      *trace.Recorder
	// contents is the functional (value-level) store, allocated on first
	// StoreBlock.
	contents map[uint64]Block
}

// New builds a controller with fresh devices.
func New(cfg Config) *Controller {
	c := &Controller{
		mapper:  NewMapper(cfg),
		devices: make([]*pcm.Device, cfg.Channels),
		stats:   make([]ChannelStats, cfg.Channels),
	}
	c.tr = cfg.Trace
	c.met = make([]chanMetrics, cfg.Channels)
	for i := range c.devices {
		pc := cfg.PCM
		pc.Metrics = cfg.Metrics.Scope(names.PerChannel(names.ScopePCM, i))
		pc.Trace = cfg.Trace
		pc.Channel = i
		c.devices[i] = pcm.New(pc)
		if sc := cfg.Metrics.Scope(names.PerChannel(names.ScopeMemctl, i)); sc != nil {
			c.met[i] = chanMetrics{
				reads:          sc.Counter(names.MemctlReads),
				writes:         sc.Counter(names.MemctlWrites),
				droppedDummies: sc.Counter(names.MemctlDroppedDummies),
			}
		}
	}
	return c
}

// Block is one stored 64-byte line.
type Block [64]byte

// StoreBlock writes content into the device's functional store (lazily
// allocated; value-carrying mode).
func (c *Controller) StoreBlock(addr uint64, data Block) {
	if c.contents == nil {
		c.contents = make(map[uint64]Block)
	}
	c.contents[addr&^63] = data
}

// LoadBlock reads content from the functional store; absent blocks read as
// zero, like fresh memory.
func (c *Controller) LoadBlock(addr uint64) Block {
	return c.contents[addr&^63]
}

// Mapper exposes the address mapping.
func (c *Controller) Mapper() *Mapper { return c.mapper }

// Device returns the PCM device behind one channel.
func (c *Controller) Device(channel int) *pcm.Device { return c.devices[channel] }

// Access services one 64-byte request at the device behind the address's
// channel, returning data-ready time. PCM service time happens behind the
// trusted memory module boundary: the address-dependent device-timing
// channel is out of scope for ObfusMem (Section 6.2) and is measured
// empirically by the leakage observatory instead.
func (c *Controller) Access(at sim.Time, addr uint64, write bool) sim.Time {
	return c.access(at, c.mapper.Decode(addr), write)
}

// AccessOnChannel services a request already routed to a channel (the
// memory-side ObfusMem controller path, where the address was decrypted on
// the device).
func (c *Controller) AccessOnChannel(at sim.Time, channel int, addr uint64, write bool) sim.Time {
	co := c.mapper.Decode(addr)
	if co.Channel != channel {
		panic(fmt.Sprintf("memctl: address %#x maps to channel %d, delivered on %d",
			addr, co.Channel, channel))
	}
	return c.access(at, co, write)
}

// access services one request at its decoded coordinates.
func (c *Controller) access(at sim.Time, co Coords, write bool) sim.Time {
	if write {
		c.stats[co.Channel].Writes++
		c.met[co.Channel].writes.Inc()
	} else {
		c.stats[co.Channel].Reads++
		c.met[co.Channel].reads.Inc()
	}
	if c.tr != nil {
		// Channel pick: the RoRaBaChCo decode routing this request.
		c.tr.Instant(trace.ChannelPID(co.Channel), "ctl", names.SpanDecode, at,
			trace.Int("rank", int64(co.Rank)), trace.Int("bank", int64(co.Bank)),
			trace.Int("row", co.Row), trace.Bool("write", write))
	}
	return c.devices[co.Channel].Access(at, co.Rank, co.Bank, co.Row, write)
}

// DropDummy records a fixed-address dummy discarded at time `at` on the
// memory side without a PCM access.
func (c *Controller) DropDummy(at sim.Time, channel int) {
	c.stats[channel].DroppedDummies++
	c.met[channel].droppedDummies.Inc()
	c.tr.Instant(trace.ChannelPID(channel), "ctl", names.SpanDummyDropped, at)
}

// Stats returns a copy of the per-channel counters.
func (c *Controller) Stats() []ChannelStats {
	out := make([]ChannelStats, len(c.stats))
	copy(out, c.stats)
	return out
}

// TotalPCMStats sums device counters across channels.
func (c *Controller) TotalPCMStats() pcm.Stats {
	var total pcm.Stats
	for _, d := range c.devices {
		s := d.Stats()
		total.Accesses += s.Accesses
		total.RowHits += s.RowHits
		total.RowMisses += s.RowMisses
		total.ArrayReads += s.ArrayReads
		total.ArrayWrites += s.ArrayWrites
		total.BlockReads += s.BlockReads
		total.BlockWrites += s.BlockWrites
		total.EnergyPJ += s.EnergyPJ
	}
	return total
}

// Flush closes all rows on all devices (end of run).
func (c *Controller) Flush() {
	for _, d := range c.devices {
		d.FlushRows()
	}
}
