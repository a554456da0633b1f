package profile

import "math/bits"

// Counters is a table of 64-bit event counts keyed by 64-bit words: the
// one counter store behind the software detector (key = region PC), the
// edge profile (key = from<<32 | to) and Fig. 3's per-instruction
// execution profile. It is open-addressed with linear probing over a
// power-of-two slot array kept at most half full; it doubles when an
// insertion would pass that, and it never deletes, so a probe stops at
// the first empty slot and always finds one. A count of 0 marks an empty
// slot — counts only grow from 1 — which leaves every key, 0 included,
// usable. Construct with NewCounters.
type Counters struct {
	slots []counter
	n     int  // occupied slots
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
}

type counter struct {
	key, count uint64
}

// NewCounters returns a table that holds n distinct keys before it first
// grows.
func NewCounters(n int) *Counters {
	size := 16
	for size < 2*n {
		size *= 2
	}
	c := &Counters{}
	c.alloc(size)
	return c
}

func (c *Counters) alloc(size int) {
	c.slots = make([]counter, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// probe returns the slot holding key, or the empty slot where key
// belongs. Fibonacci hashing: the product's top bits depend on every bit
// of the key, so PCs that differ only above the index width, and edges
// that differ only in their source, still spread.
func (c *Counters) probe(key uint64) *counter {
	mask := uint64(len(c.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> c.shift; ; i++ {
		if s := &c.slots[i&mask]; s.key == key || s.count == 0 {
			return s
		}
	}
}

// Inc adds one to key's count and returns the new count.
func (c *Counters) Inc(key uint64) uint64 {
	s := c.probe(key)
	if s.count == 0 {
		s = c.insert(key)
	}
	s.count++
	return s.count
}

// insert claims the empty slot for a key not in the table, doubling the
// slot array first when the table is half full.
func (c *Counters) insert(key uint64) *counter {
	if 2*c.n >= len(c.slots) {
		old := c.slots
		c.alloc(2 * len(old))
		for i := range old {
			if old[i].count != 0 {
				*c.probe(old[i].key) = old[i]
			}
		}
	}
	s := c.probe(key)
	s.key = key
	c.n++
	return s
}

// Get returns key's count, 0 if it was never incremented.
func (c *Counters) Get(key uint64) uint64 {
	if s := c.probe(key); s.key == key {
		return s.count
	}
	return 0
}

// Len returns the number of distinct keys counted.
func (c *Counters) Len() int { return c.n }

// Clear forgets every count and keeps the storage.
func (c *Counters) Clear() {
	clear(c.slots)
	c.n = 0
}

// Each calls fn with the count of every key, in no particular order.
func (c *Counters) Each(fn func(count uint64)) {
	for i := range c.slots {
		if n := c.slots[i].count; n != 0 {
			fn(n)
		}
	}
}
