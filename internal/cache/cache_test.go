package cache

import (
	"math/rand"
	"testing"
)

func TestBasicHitMiss(t *testing.T) {
	c := New(Config{Size: 1024, Ways: 2, Line: 64, Latency: 1})
	if hit, _ := c.Access(0, false); hit {
		t.Error("cold access should miss")
	}
	if hit, _ := c.Access(0, false); !hit {
		t.Error("second access should hit")
	}
	if hit, _ := c.Access(63, false); !hit {
		t.Error("same line should hit")
	}
	if hit, _ := c.Access(64, false); hit {
		t.Error("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 8 sets of 64B lines: addresses 0, 512, 1024 map to set 0.
	c := New(Config{Size: 1024, Ways: 2, Line: 64, Latency: 1})
	c.Access(0, false)
	c.Access(512, false)
	c.Access(0, false)    // touch 0: 512 becomes LRU
	c.Access(1024, false) // evicts 512
	if hit, _ := c.Access(0, false); !hit {
		t.Error("0 should survive (MRU)")
	}
	if hit, _ := c.Access(512, false); hit {
		t.Error("512 should have been evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(Config{Size: 128, Ways: 1, Line: 64, Latency: 1})
	c.Access(0, true) // dirty
	_, wb := c.Access(128, false)
	if !wb {
		t.Error("evicting a dirty line must write back")
	}
	_, wb = c.Access(256, false) // line 128 was clean
	if wb {
		t.Error("clean eviction must not write back")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{Size: 1024, Ways: 2, Line: 64, Latency: 1})
	c.Access(0, false)
	c.Flush()
	if hit, _ := c.Access(0, false); hit {
		t.Error("flushed line should miss")
	}
}

// Property: with W ways and a working set of exactly W lines per set, no
// capacity misses occur after warmup (LRU never evicts a live line).
func TestLRUWorkingSetProperty(t *testing.T) {
	c := New(Config{Size: 4096, Ways: 4, Line: 64, Latency: 1})
	// 16 sets; use 4 lines in set 3: addr = 3*64 + k*1024.
	addrs := []uint32{3 * 64, 3*64 + 1024, 3*64 + 2048, 3*64 + 3072}
	for _, a := range addrs {
		c.Access(a, false)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := addrs[rng.Intn(len(addrs))]
		if hit, _ := c.Access(a, false); !hit {
			t.Fatalf("iteration %d: working-set access missed", i)
		}
	}
}

func TestHierarchyPenalties(t *testing.T) {
	h := Table2()
	// Cold fetch goes to memory.
	if p := h.FetchPenalty(0x400000); p != 12+168 {
		t.Errorf("cold fetch penalty = %d, want 180", p)
	}
	// Now it's in L1I.
	if p := h.FetchPenalty(0x400000); p != 0 {
		t.Errorf("warm fetch penalty = %d", p)
	}
	// Data miss fills L2; a later fetch of the same line hits L2.
	if p := h.DataPenalty(0x500000, false); p != 12+168 {
		t.Errorf("cold load penalty = %d", p)
	}
	if p := h.FetchPenalty(0x500000); p != 12 {
		t.Errorf("fetch after data fill = %d, want 12 (L2 hit)", p)
	}
	// Stores are buffered: no stall even when missing.
	if p := h.DataPenalty(0x600000, true); p != 0 {
		t.Errorf("store penalty = %d, want 0", p)
	}
	// But the store allocated: a load now hits.
	if p := h.DataPenalty(0x600000, false); p != 0 {
		t.Errorf("load after store = %d, want 0", p)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := Table2()
	h.DataPenalty(0x123456, false)
	h.Flush()
	if p := h.DataPenalty(0x123456, false); p != 12+168 {
		t.Errorf("post-flush load = %d, want full penalty", p)
	}
}

// TestFetchRefetchIsInvisible: answering a refetch of the latest
// fetched line without the set lookup changes nothing a lookup would not
// have: against a hierarchy driven through the levels directly (what
// FetchPenalty did before it kept the memo), every penalty and every
// counter agrees over a looping, conflicting fetch stream with data
// traffic and a flush in it.
func TestFetchRefetchIsInvisible(t *testing.T) {
	ref := func(h *Hierarchy, addr uint32) int {
		if hit, _ := h.L1I.Access(addr, false); hit {
			return 0
		}
		if hit, _ := h.L2.Access(addr, false); hit {
			return h.L2.cfg.Latency
		}
		return h.L2.cfg.Latency + h.MemLatency
	}
	got, want := Table2(), Table2()
	rng := rand.New(rand.NewSource(16))
	setStride := uint32(want.L1I.cfg.Size / want.L1I.cfg.Ways) // same L1I set, another tag
	addr := uint32(0x400000)
	for i := 0; i < 200_000; i++ {
		switch r := rng.Intn(100); {
		case r < 55: // stay in the line: the loop case
			addr = addr&^63 | uint32(rng.Intn(64))
		case r < 75:
			addr += 64
		case r < 95: // conflict in the set: evictions, LRU order matters
			addr += setStride * uint32(1+rng.Intn(3))
		case r < 99:
			a := 0x800000 + uint32(rng.Intn(1<<16))
			got.DataPenalty(a, r&1 == 0)
			want.DataPenalty(a, r&1 == 0)
			continue
		default:
			got.Flush()
			want.Flush()
		}
		if g, w := got.FetchPenalty(addr), ref(want, addr); g != w {
			t.Fatalf("fetch %d of %#x: penalty %d, want %d", i, addr, g, w)
		}
	}
	if got.L1I.Stats() != want.L1I.Stats() || got.L2.Stats() != want.L2.Stats() || got.L1D.Stats() != want.L1D.Stats() {
		t.Fatalf("stats diverged:\n got L1I %+v L2 %+v\nwant L1I %+v L2 %+v",
			got.L1I.Stats(), got.L2.Stats(), want.L1I.Stats(), want.L2.Stats())
	}
}

func TestTouchWarmsLines(t *testing.T) {
	h := Table2()
	h.Touch(0x700000, 200, false) // 4 lines
	for off := uint32(0); off < 200; off += 64 {
		if p := h.DataPenalty(0x700000+off, false); p != 0 {
			t.Errorf("touched line at +%d still misses", off)
		}
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate should be 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %f", s.MissRate())
	}
}

func TestBadConfigPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"non-power-of-two set count": {Size: 3 * 64, Ways: 1, Line: 64, Latency: 1},
		"more ways than rank bytes":  {Size: 9 * 64, Ways: 9, Line: 64, Latency: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %s", name)
				}
			}()
			New(cfg)
		}()
	}
}

// TestTouchZeroSize: an empty range touches nothing. With a line-aligned
// address the last line used to come out one below the first, and the
// walk wrapped through the whole address space.
func TestTouchZeroSize(t *testing.T) {
	h := Table2()
	for _, addr := range []uint32{0x700000, 0x700001, 0} {
		h.Touch(addr, 0, true)
		h.Touch(addr, -4, false)
	}
	if n := h.L1D.Stats().Accesses + h.L2.Stats().Accesses; n != 0 {
		t.Errorf("empty touches made %d accesses", n)
	}
}

var sinkHit bool

// BenchmarkCacheAccess is bench/layers.go's probe of one Table 2 L1D:
// always hitting (64 lines, one per set) and always missing (a sweep of
// 4× the capacity).
func BenchmarkCacheAccess(b *testing.B) {
	cfg := Table2().L1D.Config()
	line := uint32(cfg.Line)
	b.Run("hit", func(b *testing.B) {
		c := New(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkHit, _ = c.Access(0x10000000+uint32(i%64)*line, false)
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := New(cfg)
		next, span := uint32(0), uint32(4*cfg.Size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkHit, _ = c.Access(0x10000000+next, false)
			next = (next + line) % span
		}
	})
}

var sinkHierarchy *Hierarchy

// BenchmarkTable2 is what every vmm.New pays for its memory system.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHierarchy = Table2()
	}
}
