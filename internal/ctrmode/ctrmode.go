// Package ctrmode implements processor-side counter-mode memory encryption
// (Section 2.4, Fig 2): split per-page major / per-block minor counters, IV
// construction, a 256 KB counter cache, pad pre-generation overlapped with
// the LLC miss, and page re-encryption on minor-counter overflow.
//
// This protects data at rest in memory and is required by every protected
// configuration in the paper (including ORAM, to keep the PosMap secret).
// ObfusMem layers bus-transit encryption on top of it (Observation 1).
package ctrmode

import (
	"obfusmem/internal/aes"
	"obfusmem/internal/cache"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
)

// Geometry constants. A 4 KB page holds 64 blocks of 64 B; its counter
// block packs one 64-bit major counter plus 64 7-bit minors into 64 bytes.
const (
	PageBytes     = 4096
	BlockBytes    = 64
	BlocksPerPage = PageBytes / BlockBytes
	MinorBits     = 7
	MinorLimit    = 1 << MinorBits // overflow threshold
	XORLatency    = sim.CPUCycle   // the only serial step on a hit
)

// Counter cache of Table 2: 256 KB, 8-way, 64 B blocks, 5-cycle hits.
const (
	ctrCacheBytes  = 256 << 10
	ctrCacheAssoc  = 8
	CtrCacheHitLat = 5 * sim.CPUCycle
)

// pageCounters is the functional (value-level) counter state of one page.
// A minor counter never exceeds MinorLimit-1 (127) at rest, so a byte
// holds it.
type pageCounters struct {
	major  uint64
	minors [BlocksPerPage]uint8
}

// pageChunk is how many pages' counters one allocation holds.
const pageChunk = 64

// Stats counts encryption-engine events.
type Stats struct {
	Fills            uint64 // decrypted LLC fills
	Writebacks       uint64 // encrypted LLC writebacks
	CtrHits          uint64
	CtrMisses        uint64
	CtrFetches       uint64 // memory reads for counter blocks
	CtrWritebacks    uint64 // counter blocks written back to memory
	PageReencrypts   uint64 // minor-counter overflows
	ReencryptedBlks  uint64
	PadsHiddenByMiss uint64 // pads fully overlapped with the data fetch
	PadsExposed      uint64 // pads whose latency was partially exposed
}

// MemFetch is the hook through which the engine reads/writes counter blocks
// in memory. It returns the completion time of the access.
type MemFetch func(at sim.Time, addr uint64, write bool) sim.Time

// engineMetrics mirrors the counter-cache fields of Stats into a metrics
// registry; the zero value is the disabled state.
type engineMetrics struct {
	hits, misses, fetches, writebacks, reencrypts *metrics.Counter
}

// Engine is the processor-side memory encryption unit.
type Engine struct {
	// pads is the timing of the memory-encryption AES; ctr makes its pads.
	pads     *sim.Pipeline
	ctr      *aes.CTR
	ctrCache *cache.Cache
	// pages maps a page number to its index in chunks: page i's counters
	// are chunks[i/pageChunk][i%pageChunk], in first-touch order.
	pages  map[uint64]uint32
	chunks []*[pageChunk]pageCounters
	fetch  MemFetch
	stats  Stats
	met    engineMetrics
	// counterRegion is a synthetic address base where counter blocks live
	// in memory, distinct from data addresses.
	counterRegion uint64
}

// New builds an encryption engine. memKey is the at-rest data key (distinct
// from bus session keys). fetch services counter-block memory accesses; a
// nil fetch models an idealised counter store with no memory traffic.
func New(memKey [16]byte, fetch MemFetch) *Engine {
	c, err := aes.NewCipher(memKey[:])
	if err != nil {
		panic("ctrmode: bad key: " + err.Error())
	}
	return &Engine{
		// The memory-encryption AES sits on the processor die and is
		// clocked with the core: 24 pipeline stages at 500 ps. Its pads
		// therefore hide behind even a PCM row-buffer hit.
		pads:          sim.NewPipeline(24*sim.CPUCycle, sim.CPUCycle),
		ctr:           aes.NewCTR(c),
		ctrCache:      cache.New(ctrCacheBytes, ctrCacheAssoc, BlockBytes),
		pages:         make(map[uint64]uint32),
		fetch:         fetch,
		counterRegion: 1 << 40,
	}
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetMetrics mirrors the counter-cache hits, misses, fetches and
// write-backs and the page re-encryptions into reg's "ctrmode" scope from
// now on. A nil reg turns the mirror off.
func (e *Engine) SetMetrics(reg *metrics.Registry) {
	sc := reg.Scope(names.ScopeCtrmode)
	e.met = engineMetrics{
		hits:       sc.Counter(names.CtrmodeHits),
		misses:     sc.Counter(names.CtrmodeMisses),
		fetches:    sc.Counter(names.CtrmodeFetches),
		writebacks: sc.Counter(names.CtrmodeWritebacks),
		reencrypts: sc.Counter(names.CtrmodePageReencrypts),
	}
}

func pageOf(addr uint64) uint64 { return addr / PageBytes }
func blockOf(addr uint64) int   { return int(addr%PageBytes) / BlockBytes }
func (e *Engine) ctrBlockAddr(page uint64) uint64 {
	return e.counterRegion + page*BlockBytes
}

func (e *Engine) page(addr uint64) *pageCounters {
	p := pageOf(addr)
	i, ok := e.pages[p]
	if !ok {
		i = uint32(len(e.pages))
		if i%pageChunk == 0 {
			e.chunks = append(e.chunks, new([pageChunk]pageCounters))
		}
		e.pages[p] = i
	}
	return &e.chunks[i/pageChunk][i%pageChunk]
}

// IVFor builds the IV of a block at its current counter version: page ID,
// page offset, major and minor counters (Fig 2).
func (e *Engine) IVFor(addr uint64) aes.IV {
	return ivOf(addr, e.page(addr))
}

// ivOf builds the IV of a block from its page's counters.
func ivOf(addr uint64, pc *pageCounters) aes.IV {
	blk := blockOf(addr)
	return aes.IV{
		ID:      pageOf(addr)<<8 | uint64(blk),
		Counter: pc.major<<MinorBits | uint64(pc.minors[blk]),
	}
}

// counterReady models obtaining the counter for addr at time `at`: a
// counter-cache hit costs the cache latency; a miss additionally fetches the
// counter block from memory.
func (e *Engine) counterReady(at sim.Time, addr uint64) sim.Time {
	page := pageOf(addr)
	cAddr := e.ctrBlockAddr(page)
	if e.ctrCache.Lookup(cAddr) {
		e.stats.CtrHits++
		e.met.hits.Inc()
		return at + CtrCacheHitLat
	}
	e.stats.CtrMisses++
	e.met.misses.Inc()
	ready := at + CtrCacheHitLat
	if e.fetch != nil {
		e.stats.CtrFetches++
		e.met.fetches.Inc()
		ready = e.fetch(at, cAddr, false)
	}
	// Every cached counter block is held dirty, so every victim is
	// written back, even one that was only read (DESIGN §5).
	if victim, ok := e.ctrCache.Insert(cAddr); ok {
		e.stats.CtrWritebacks++
		e.met.writebacks.Inc()
		if e.fetch != nil {
			e.fetch(ready, victim, true) // posted
		}
	}
	return ready
}

// DecryptFill models decrypting an LLC fill: the pad generation starts as
// soon as the counter is available and overlaps the memory fetch; only the
// XOR (and any un-hidden pad latency) lands on the critical path. dataReady
// is when the ciphertext block arrives from memory; the return value is
// when plaintext is available.
func (e *Engine) DecryptFill(at sim.Time, addr uint64, dataReady sim.Time) sim.Time {
	e.stats.Fills++
	ctrAt := e.counterReady(at, addr)
	// Four pads for the 64-byte block.
	padsDone := e.pads.IssueN(ctrAt, 4)
	if padsDone <= dataReady {
		e.stats.PadsHiddenByMiss++
	} else {
		e.stats.PadsExposed++
	}
	done := dataReady
	if padsDone > done {
		done = padsDone
	}
	return done + XORLatency
}

// EncryptWriteback models encrypting an LLC writeback: the minor counter is
// bumped (possibly overflowing into a page re-encryption), pads are
// generated, and the ciphertext is ready at the returned time. Writebacks
// are posted, so this latency matters only for bus/bank occupancy.
// The returned IV identifies the version used (needed for later decryption
// and for ObfusMem's second encryption layer to be distinct from it).
func (e *Engine) EncryptWriteback(at sim.Time, addr uint64) (ready sim.Time, iv aes.IV) {
	e.stats.Writebacks++
	pc := e.page(addr)
	blk := blockOf(addr)
	pc.minors[blk]++
	if pc.minors[blk] >= MinorLimit {
		// Overflow: bump the major counter, clear minors, re-encrypt the
		// whole page under the new major (counted; the traffic is modelled
		// as BlocksPerPage extra pad generations).
		pc.major++
		for i := range pc.minors {
			pc.minors[i] = 0
		}
		pc.minors[blk] = 1
		e.stats.PageReencrypts++
		e.met.reencrypts.Inc()
		e.stats.ReencryptedBlks += BlocksPerPage
		e.pads.IssueN(at, BlocksPerPage*4)
	}
	ctrAt := e.counterReady(at, addr)
	padsDone := e.pads.IssueN(ctrAt, 4)
	return padsDone + XORLatency, ivOf(addr, pc)
}

// EncryptData functionally encrypts a 64-byte block in place at its current
// counter version (used by value-level tests and the end-to-end examples).
func (e *Engine) EncryptData(data []byte, addr uint64) {
	e.ctr.EncryptBlock64(data, e.ivWide(addr))
}

// DecryptData reverses EncryptData at the current counter version.
func (e *Engine) DecryptData(data []byte, addr uint64) {
	e.ctr.EncryptBlock64(data, e.ivWide(addr))
}

// ivWide spreads the four pad positions of a block across the counter space
// so adjacent blocks never share pads.
func (e *Engine) ivWide(addr uint64) aes.IV {
	iv := e.IVFor(addr)
	return aes.IV{ID: iv.ID, Counter: iv.Counter << 2}
}

// PadsGenerated returns total pad count (for the Section 5.2 energy math).
func (e *Engine) PadsGenerated() uint64 { return e.pads.Ops() }

// EnergyPJ returns AES energy spent on memory encryption.
func (e *Engine) EnergyPJ() float64 { return float64(e.pads.Ops()) * aes.PadEnergyPJ }

// CtrHitRate returns the counter-cache hit rate.
func (e *Engine) CtrHitRate() float64 {
	total := e.stats.CtrHits + e.stats.CtrMisses
	if total == 0 {
		return 0
	}
	return float64(e.stats.CtrHits) / float64(total)
}
