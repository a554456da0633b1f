package profile

import (
	"math/rand"
	"testing"
)

// TestCountersMatchMap is the property test of the counter table against
// the Go map it replaced: a stream of increments over key 0, keys that
// agree in their low 16 bits (what a mask-the-low-bits hash would pile
// into one chain), keys that agree in their high 32 bits (edges out of
// one block) and random keys, large enough to double the table at least
// four times, leaves the same count for every key and no other key.
func TestCountersMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := NewCounters(0)
	first := len(c.slots)
	want := map[uint64]uint64{}
	keys := []uint64{0}
	for i := 0; i < 200; i++ {
		keys = append(keys, uint64(i+1)<<16|0xBEEF)
	}
	for i := 0; i < 200; i++ {
		keys = append(keys, 0x00401000<<32|uint64(rng.Uint32()))
	}
	for i := 0; i < 400; i++ {
		keys = append(keys, rng.Uint64())
	}
	for i := 0; i < 50_000; i++ {
		// Skewed like a profile: a few keys take most increments.
		k := keys[rng.Intn(1+rng.Intn(len(keys)))]
		want[k]++
		if got := c.Inc(k); got != want[k] {
			t.Fatalf("increment %d of %#x returned %d, want %d", i, k, got, want[k])
		}
	}
	if len(c.slots) < first<<4 {
		t.Fatalf("table grew from %d to %d slots: fewer than 4 doublings", first, len(c.slots))
	}
	if 2*len(want) > len(c.slots) {
		t.Fatalf("%d keys in %d slots: more than half full", len(want), len(c.slots))
	}
	for k, n := range want {
		if got := c.Get(k); got != n {
			t.Errorf("count of %#x = %d, want %d", k, got, n)
		}
	}
	for i := 0; i < 1000; i++ {
		if k := rng.Uint64(); want[k] == 0 && c.Get(k) != 0 {
			t.Errorf("absent key %#x has count %d", k, c.Get(k))
		}
	}
	seen, sum := 0, uint64(0)
	c.Each(func(n uint64) { seen++; sum += n })
	if seen != len(want) || sum != 50_000 {
		t.Errorf("Each visited %d keys summing to %d, want %d and 50000", seen, sum, len(want))
	}

	c.Clear()
	if c.Get(0) != 0 || c.Get(keys[1]) != 0 {
		t.Error("Clear kept a count")
	}
	if c.Inc(keys[1]) != 1 {
		t.Error("count after Clear did not restart at 1")
	}
}

// TestCountersSizedNeverGrow: NewCounters(n) holds n keys in the slots it
// was made with (Fig. 3 sizes its table from the program's static size).
func TestCountersSizedNeverGrow(t *testing.T) {
	for _, n := range []int{1, 8, 9, 1000, 1024, 1025} {
		c := NewCounters(n)
		size := len(c.slots)
		for k := 0; k < n; k++ {
			c.Inc(uint64(k) * 4)
		}
		if len(c.slots) != size {
			t.Errorf("NewCounters(%d): grew from %d to %d slots", n, size, len(c.slots))
		}
		if size >= 4*n && size > 16 {
			t.Errorf("NewCounters(%d): %d slots is over-provisioned", n, size)
		}
	}
}

// TestCountersIncZeroAlloc: counting a key the table already holds — the
// profilers' steady state — allocates nothing.
func TestCountersIncZeroAlloc(t *testing.T) {
	c := NewCounters(64)
	for k := uint64(0); k < 64; k++ {
		c.Inc(k << 32)
	}
	if avg := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 64; k++ {
			c.Inc(k << 32)
		}
	}); avg != 0 {
		t.Errorf("%v allocations per 64 increments of present keys", avg)
	}
}

// BenchmarkCountersInc is the profilers' per-event cost: an increment of
// a present key, over a working set of 1 k edges.
func BenchmarkCountersInc(b *testing.B) {
	c := NewCounters(1024)
	keys := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = edgeKey(0x400000+uint32(rng.Intn(1<<16)), 0x400000+uint32(rng.Intn(1<<16)))
		c.Inc(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(keys[i&1023])
	}
}
