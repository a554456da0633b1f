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

import "fmt"

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

// line is one cache line. key packs the tag with a validity bit in bit
// 0 (key = tag<<1 | 1), so the hit loop — the memory system's hottest
// path — is a single word compare per way; the zero value (key 0, an
// even number) can never match. Line sizes are at least 2 bytes, so a
// 31-bit tag always fits.
type line struct {
	key   uint32
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is one set-associative cache level. Lines are stored as one
// contiguous array (set-major) so an access touches a single allocation.
type Cache struct {
	cfg      Config
	lines    []line // nSets × Ways, set-major
	hint     []byte // per-set most-recently-hit way (purely an accelerator)
	ways     uint32
	setShift uint
	setMask  uint32
	tick     uint64
	stats    Stats
}

// New builds a cache level from its configuration.
func New(cfg Config) *Cache {
	if cfg.Line < 2 || cfg.Line&(cfg.Line-1) != 0 || cfg.Ways <= 0 || cfg.Size <= 0 {
		// The index math shifts by log2(Line), which a non-power-of-two
		// line size would silently corrupt.
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
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nSets*cfg.Ways),
		hint:     make([]byte, nSets),
		ways:     uint32(cfg.Ways),
		setShift: shift,
		setMask:  uint32(nSets - 1),
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the level's statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Flush invalidates every line (used for the memory-startup scenario:
// caches empty, program resident in memory).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// Access looks up the line containing addr; on a miss the line is filled
// (evicting LRU). It returns hit and whether a dirty line was evicted.
func (c *Cache) Access(addr uint32, write bool) (hit, wroteBack bool) {
	c.tick++
	c.stats.Accesses++
	tag := addr >> c.setShift
	key := tag<<1 | 1
	set := tag & c.setMask
	base := set * c.ways
	lines := c.lines[base : base+c.ways]
	// Most-recently-hit way first: accesses to a set overwhelmingly
	// re-touch the same line, so this usually skips the way scan. The
	// hint is only ever a guess — the key compare decides — so stale
	// hints cost one extra compare, never correctness.
	if h := uint32(c.hint[set]); h < uint32(len(lines)) && lines[h].key == key {
		lines[h].used = c.tick
		if write {
			lines[h].dirty = true
		}
		return true, false
	}
	for i := range lines {
		if lines[i].key == key {
			lines[i].used = c.tick
			if write {
				lines[i].dirty = true
			}
			c.hint[set] = byte(i)
			return true, false
		}
	}
	// Miss: evict LRU.
	c.stats.Misses++
	victim := 0
	for i := 1; i < len(lines); i++ {
		if lines[i].key == 0 {
			victim = i
			break
		}
		if lines[i].used < lines[victim].used {
			victim = i
		}
	}
	wroteBack = lines[victim].key != 0 && lines[victim].dirty
	if wroteBack {
		c.stats.Writebacks++
	}
	lines[victim] = line{key: key, dirty: write, used: c.tick}
	c.hint[set] = byte(victim)
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
