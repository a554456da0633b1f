package vmm

import (
	"unsafe"

	"codesignvm/internal/codecache"
)

// DefaultJTLBEntries sizes the dispatch jump-TLB when the configuration
// does not.
const DefaultJTLBEntries = codecache.DefaultJTLBEntries

// DefaultShadowCap bounds the live shadow-block set when the
// configuration does not. Shadow blocks model hardware-decode (or
// interpreter dispatch) state, so rebuilding an evicted block costs no
// simulated cycles; the cap exists to keep host memory proportional to
// the working set instead of the whole static footprint. It is sized
// above the static block count of the standard workloads so default
// runs never evict (keeping their results bit-identical), while
// unbounded growth on pathological code is impossible.
const DefaultShadowCap = 1 << 15

// shadowEntry is one resident shadow block with its clock reference bit.
// The pointer comes first, so the entry packs into 16 bytes.
type shadowEntry struct {
	t   *codecache.Translation
	pc  uint32
	ref bool
}

var _ [16]byte = [unsafe.Sizeof(shadowEntry{})]byte{}

// shadowFrontSize is the size of the direct-mapped lookup front cache.
// It memoizes pc→entry-index guesses only; every guess is validated
// against the entry's pc before use, so stale slots (after clock
// replacement or remove's swap) simply fall through to the map and
// semantics are exactly those of the map alone.
const shadowFrontSize = 1024

// shadowTable is the bounded shadow-block store: a map index over a
// dense entry array scanned by a clock (second-chance) hand when the
// capacity is reached. A small direct-mapped front cache short-circuits
// the map on the dispatch path (x86-mode and interpreted strategies
// look up a shadow block per executed block).
type shadowTable struct {
	cap   int
	idx   map[uint32]int
	ents  []shadowEntry
	hand  int
	front [shadowFrontSize]int32 // pc-hashed entry-index guesses
}

func newShadowTable(capacity int) *shadowTable {
	if capacity <= 0 {
		capacity = DefaultShadowCap
	}
	return &shadowTable{cap: capacity, idx: make(map[uint32]int)}
}

// get returns the resident block for pc (touching its reference bit),
// or nil.
func (s *shadowTable) get(pc uint32) *codecache.Translation {
	h := (pc * 0x9E3779B1) >> 22 // Fibonacci hash to 10 bits (shadowFrontSize)
	if g := s.front[h]; int(g) < len(s.ents) {
		if e := &s.ents[g]; e.pc == pc {
			e.ref = true
			return e.t
		}
	}
	i, ok := s.idx[pc]
	if !ok {
		return nil
	}
	s.front[h] = int32(i)
	s.ents[i].ref = true
	return s.ents[i].t
}

// put inserts t for pc. At capacity the clock hand sweeps, clearing
// reference bits until it finds a cold victim to replace; the victim's
// pc is returned so the owner can shoot down derived state (jump-TLB).
func (s *shadowTable) put(pc uint32, t *codecache.Translation) (evictedPC uint32, evicted bool) {
	if i, ok := s.idx[pc]; ok {
		s.ents[i].t = t
		s.ents[i].ref = true
		return 0, false
	}
	if len(s.ents) < s.cap {
		s.idx[pc] = len(s.ents)
		s.ents = append(s.ents, shadowEntry{pc: pc, t: t, ref: true})
		return 0, false
	}
	for {
		e := &s.ents[s.hand]
		if e.ref {
			e.ref = false
			s.hand++
			if s.hand == len(s.ents) {
				s.hand = 0
			}
			continue
		}
		evictedPC = e.pc
		delete(s.idx, e.pc)
		s.idx[pc] = s.hand
		*e = shadowEntry{pc: pc, t: t, ref: true}
		s.hand++
		if s.hand == len(s.ents) {
			s.hand = 0
		}
		return evictedPC, true
	}
}

// remove deletes the block for pc (stage promotion: the block moves to
// the BBT cache). The last entry is swapped into the hole.
func (s *shadowTable) remove(pc uint32) {
	i, ok := s.idx[pc]
	if !ok {
		return
	}
	delete(s.idx, pc)
	last := len(s.ents) - 1
	if i != last {
		s.ents[i] = s.ents[last]
		s.idx[s.ents[i].pc] = i
	}
	s.ents = s.ents[:last]
	if s.hand >= len(s.ents) {
		s.hand = 0
	}
}

// len returns the number of resident shadow blocks.
func (s *shadowTable) len() int { return len(s.ents) }
