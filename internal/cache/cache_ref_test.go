package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the array-of-structs cache this package shipped before the
// struct-of-arrays layout, kept as the test-only reference: LRU by a
// 64-bit access timestamp per line, victim = the first never-filled way
// or else the smallest timestamp. TestMatchesReferenceLRU holds Cache to
// it access for access.
type refCache struct {
	lines   []refLine // nSets × ways, set-major
	ways    uint32
	shift   uint
	setMask uint32
	tick    uint64
	stats   Stats
}

type refLine struct {
	key   uint32 // tag<<1 | 1; 0 = never filled
	dirty bool
	used  uint64 // LRU timestamp
}

func newRefCache(cfg Config) *refCache {
	nSets := cfg.Size / (cfg.Line * cfg.Ways)
	shift := uint(0)
	for l := cfg.Line; l > 1; l >>= 1 {
		shift++
	}
	return &refCache{
		lines:   make([]refLine, nSets*cfg.Ways),
		ways:    uint32(cfg.Ways),
		shift:   shift,
		setMask: uint32(nSets - 1),
	}
}

func (c *refCache) Flush() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
}

func (c *refCache) Access(addr uint32, write bool) (hit, wroteBack bool) {
	c.tick++
	c.stats.Accesses++
	tag := addr >> c.shift
	key := tag<<1 | 1
	base := (tag & c.setMask) * c.ways
	lines := c.lines[base : base+c.ways]
	for i := range lines {
		if lines[i].key == key {
			lines[i].used = c.tick
			if write {
				lines[i].dirty = true
			}
			return true, false
		}
	}
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
	lines[victim] = refLine{key: key, dirty: write, used: c.tick}
	return false, wroteBack
}

// TestMatchesReferenceLRU: the rank-permutation LRU is the timestamp LRU.
// Over the three Table 2 geometries plus a direct-mapped and a 4-way
// cache, four kinds of stream — uniform random, one set thrashed by more
// tags than ways, a store-heavy mix, and a stream flushed part-way —
// give the same (hit, wroteBack) on every access and the same Stats.
func TestMatchesReferenceLRU(t *testing.T) {
	t2 := Table2()
	geometries := []Config{
		t2.L1I.Config(), t2.L1D.Config(), t2.L2.Config(),
		{Size: 4096, Ways: 1, Line: 64, Latency: 1},
		{Size: 8192, Ways: 4, Line: 32, Latency: 1},
	}
	type access struct {
		addr  uint32
		write bool
		flush bool // flush both caches before this access
	}
	streams := map[string]func(cfg Config, rng *rand.Rand, n int) []access{
		"random": func(cfg Config, rng *rand.Rand, n int) []access {
			out := make([]access, n)
			for i := range out {
				out[i] = access{addr: uint32(rng.Intn(4 * cfg.Size))}
			}
			return out
		},
		"single-set-thrash": func(cfg Config, rng *rand.Rand, n int) []access {
			stride := uint32(cfg.Size / cfg.Ways) // same set, next tag
			out := make([]access, n)
			for i := range out {
				out[i] = access{addr: 5*uint32(cfg.Line) + stride*uint32(rng.Intn(cfg.Ways+3)), write: rng.Intn(4) == 0}
			}
			return out
		},
		"write-mix": func(cfg Config, rng *rand.Rand, n int) []access {
			out := make([]access, n)
			for i := range out {
				out[i] = access{addr: uint32(rng.Intn(2 * cfg.Size)), write: rng.Intn(2) == 0}
			}
			return out
		},
		"mid-stream-flush": func(cfg Config, rng *rand.Rand, n int) []access {
			out := make([]access, n)
			for i := range out {
				out[i] = access{addr: uint32(rng.Intn(3 * cfg.Size / 2)), write: rng.Intn(3) == 0, flush: i%(n/3) == n/4}
			}
			return out
		},
	}
	for _, cfg := range geometries {
		for name, gen := range streams {
			t.Run(fmt.Sprintf("%dK-%dway/%s", cfg.Size>>10, cfg.Ways, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(cfg.Size + cfg.Ways)))
				n := 40 * cfg.Size / cfg.Line // every line turned over many times
				if n > 400_000 {
					n = 400_000
				}
				got, want := New(cfg), newRefCache(cfg)
				for i, a := range gen(cfg, rng, n) {
					if a.flush {
						got.Flush()
						want.Flush()
					}
					gh, gw := got.Access(a.addr, a.write)
					wh, ww := want.Access(a.addr, a.write)
					if gh != wh || gw != ww {
						t.Fatalf("access %d (%#x write=%v): got (hit %v, wroteBack %v), reference (%v, %v)",
							i, a.addr, a.write, gh, gw, wh, ww)
					}
				}
				if got.Stats() != want.stats {
					t.Fatalf("stats %+v, reference %+v", got.Stats(), want.stats)
				}
				if want.stats.Misses == 0 || want.stats.Misses == want.stats.Accesses {
					t.Fatalf("degenerate stream: %+v", want.stats)
				}
			})
		}
	}
}
