// Package cache simulates the processor cache hierarchy of Table 2: a
// split L1 (instruction and data) backed by a unified L2 and main
// memory. Caches are set-associative with LRU replacement, write-back
// and write-allocate. The simulator returns, per access, the latency
// added beyond the L1 pipeline latency, which the timing model folds
// into block execution time.
//
// Concurrency: a Hierarchy has no internal locking and its access
// order determines its LRU state, so each instance is owned by exactly
// one goroutine. Under the decoupled execute/timing pipeline that
// owner is the timing consumer, which replays the producer's memory
// trace in execution order — the hierarchy therefore observes the same
// access sequence as a sequential run and reaches the same state.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Size    int // bytes
	Ways    int
	Line    int // bytes
	Latency int // access latency in cycles
}

// Stats counts accesses per level.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns the fraction of accesses that missed.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative cache level, stored struct-of-arrays: the
// hit loop — the memory system's hottest path — reads only a set's keys
// (one word per way, contiguous), and everything else a set has is one
// LRU word and one dirty byte.
//
// A key packs the tag with a validity bit in bit 0 (key = tag<<1 | 1),
// so a way matches by a single word compare and the zero value (an even
// number) never does. Line sizes are at least 2 bytes, so a 31-bit tag
// always fits.
//
// lru[set] holds the set's exact LRU order as a permutation of its ways,
// one byte per rank: byte 0 names the most recently used way, byte
// ways-1 the victim. New puts way 0 last and every fill moves its way to
// the front, so ways never filled always sit behind every way that was:
// a miss takes them first without looking at validity, and Flush leaves
// the order as it is (any order of all-invalid ways will do). Bytes
// beyond ways-1 mean nothing. DESIGN.md §14 argues the order is the
// timestamp LRU's, access for access; TestMatchesReferenceLRU checks it.
type Cache struct {
	cfg      Config
	keys     []uint32 // nSets × ways, set-major
	lru      []uint64 // per set: byte r = the way of LRU rank r (0 = newest)
	dirty    []uint8  // per set: bit w = way w holds a modified line
	ways     uint32
	setShift uint
	setMask  uint32
	lruShift uint // 8·(ways-1): where the victim's byte sits
	stats    Stats
}

// maxWays is how many 8-bit way numbers one LRU word holds.
const maxWays = 8

// New builds a cache level from its configuration.
func New(cfg Config) *Cache {
	if cfg.Line < 2 || cfg.Line&(cfg.Line-1) != 0 || cfg.Ways <= 0 || cfg.Ways > maxWays || cfg.Size <= 0 {
		// The index math shifts by log2(Line), which a non-power-of-two
		// line size would silently corrupt; a set's LRU order is one
		// byte per way in one word.
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	nSets := cfg.Size / (cfg.Line * cfg.Ways)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", nSets))
	}
	shift := uint(0)
	for l := cfg.Line; l > 1; l >>= 1 {
		shift++
	}
	// Way 0 fills first, then way 1, …: a sparsely used set keeps its
	// lines where the way scan looks first.
	order := uint64(0)
	for w := 0; w < cfg.Ways; w++ {
		order = order<<8 | uint64(w)
	}
	lru := make([]uint64, nSets)
	for i := range lru {
		lru[i] = order
	}
	return &Cache{
		cfg:      cfg,
		keys:     make([]uint32, nSets*cfg.Ways),
		lru:      lru,
		dirty:    make([]uint8, nSets),
		ways:     uint32(cfg.Ways),
		setShift: shift,
		setMask:  uint32(nSets - 1),
		lruShift: 8 * uint(cfg.Ways-1),
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the level's statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Flush invalidates every line (used for the memory-startup scenario:
// caches empty, program resident in memory).
func (c *Cache) Flush() {
	clear(c.keys)
	clear(c.dirty)
}

// promote returns LRU word o with way w moved to the front: the ways
// ahead of it each step back one rank, the ways behind it stay. w's rank
// is the lowest byte of o equal to w — the lowest zero byte of o^w·0x01…,
// which the carry trick finds exactly — and a word holds each way once
// below byte `ways`, so whatever lies beyond is never the match.
func promote(o uint64, w uint) uint64 {
	const low, high = 0x0101010101010101, 0x8080808080808080
	x := o ^ uint64(w)*low
	ahead := uint64(1)<<(uint(bits.TrailingZeros64((x-low)&^x&high))&^7) - 1 // the bytes ranked before w
	return o&^(ahead<<8|0xFF) | o&ahead<<8 | uint64(w)
}

// Access looks up the line containing addr; on a miss the line is filled
// (evicting LRU). It returns hit and whether a dirty line was evicted.
func (c *Cache) Access(addr uint32, write bool) (hit, wroteBack bool) {
	c.stats.Accesses++
	tag := addr >> c.setShift
	key := tag<<1 | 1
	set := tag & c.setMask
	base := set * c.ways
	keys := c.keys[base : base+c.ways]
	o := c.lru[set]
	// Accesses to a set overwhelmingly re-touch its most recent line,
	// and nothing moves on such a hit.
	if mru := o & 0xFF; keys[mru] == key {
		if write {
			c.dirty[set] |= 1 << mru
		}
		return true, false
	}
	for w, k := range keys {
		if k == key {
			c.lru[set] = promote(o, uint(w))
			if write {
				c.dirty[set] |= 1 << uint(w)
			}
			return true, false
		}
	}
	// Miss: the last-ranked way is the victim and becomes the newest.
	c.stats.Misses++
	victim := o >> c.lruShift & 0xFF
	bit := uint8(1) << victim
	d := c.dirty[set]
	if d&bit != 0 {
		wroteBack = true
		c.stats.Writebacks++
	}
	if write {
		d |= bit
	} else {
		d &^= bit
	}
	c.dirty[set] = d
	keys[victim] = key
	c.lru[set] = o<<8 | victim
	return false, wroteBack
}

// Hierarchy is the Table 2 memory system: L1I + L1D over a unified L2
// over main memory.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   int // main-memory latency in CPU cycles

	// lastFetch is the line (address | 1; 0: none) of the latest
	// FetchPenalty. Every L1I access goes through FetchPenalty, so that
	// line is resident and already the most recent of its set.
	lastFetch uint32
}

// Table2 returns the hierarchy of the paper's machine configurations:
// 64KB 2-way L1I (2 cycles), 64KB 8-way L1D (3 cycles), 2MB 8-way L2
// (12 cycles), 168-cycle main memory; 64B lines throughout.
func Table2() *Hierarchy {
	return &Hierarchy{
		L1I:        New(Config{Size: 64 << 10, Ways: 2, Line: 64, Latency: 2}),
		L1D:        New(Config{Size: 64 << 10, Ways: 8, Line: 64, Latency: 3}),
		L2:         New(Config{Size: 2 << 20, Ways: 8, Line: 64, Latency: 12}),
		MemLatency: 168,
	}
}

// Flush empties every level.
func (h *Hierarchy) Flush() {
	h.lastFetch = 0
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
}

// FetchPenalty performs an instruction fetch of the line containing addr
// and returns the added latency beyond the pipelined L1I access (0 on an
// L1I hit).
func (h *Hierarchy) FetchPenalty(addr uint32) int {
	// A loop refetches the line it just fetched: a hit that would move
	// nothing in the L1I but its access count (LRU order is relative,
	// and the line is already the newest of its set).
	line := addr>>h.L1I.setShift<<h.L1I.setShift | 1
	if line == h.lastFetch {
		h.L1I.stats.Accesses++
		return 0
	}
	h.lastFetch = line
	if hit, _ := h.L1I.Access(addr, false); hit {
		return 0
	}
	if hit, _ := h.L2.Access(addr, false); hit {
		return h.L2.cfg.Latency
	}
	return h.L2.cfg.Latency + h.MemLatency
}

// DataPenalty performs a data access and returns the added latency
// beyond the pipelined L1D access (0 on an L1D hit). Stores that miss
// allocate but add no stall (write buffering); their penalty is 0.
func (h *Hierarchy) DataPenalty(addr uint32, write bool) int {
	hit, _ := h.L1D.Access(addr, write)
	if hit {
		return 0
	}
	l2hit, _ := h.L2.Access(addr, write)
	if write {
		return 0 // write-buffered
	}
	if l2hit {
		return h.L2.cfg.Latency
	}
	return h.L2.cfg.Latency + h.MemLatency
}

// Touch warms a byte range in the data hierarchy (used to model the
// translator's own memory traffic: reading architected code bytes and
// writing translations).
func (h *Hierarchy) Touch(addr uint32, size int, write bool) {
	if size <= 0 {
		return // no byte, no line: last would fall one line below first
	}
	lineSz := uint32(h.L1D.cfg.Line)
	first := addr &^ (lineSz - 1)
	last := (addr + uint32(size) - 1) &^ (lineSz - 1)
	for a := first; ; a += lineSz {
		h.DataPenalty(a, write)
		if a == last {
			break
		}
	}
}
