package codecache

import (
	"codesignvm/internal/fisa"
)

// Arena is a slab allocator for translations and their backing arrays.
// Translations in a code cache share one lifetime — they all die
// together at the next flush — so per-translation heap allocations
// (the struct, the micro-op array, the exits, the timing metadata, the
// inbound chain-edge nodes) can be carved from large slabs instead,
// and the whole arena recycled in O(slabs) when the cache flushes.
//
// Reuse protocol. Commit copies a scratch-built translation into
// arena-backed storage and returns the arena copy; the copy, not the
// scratch original, is the identity every later reference (lookup
// table, chains, jump-TLB, dispatch) must use. Reset reclaims all
// carved storage at once. Because outstanding pointers into a reset
// arena would silently alias the next epoch's translations, the owner
// must sever every external reference first — the flush path unchains
// all inbound edges, bumps each dead translation's Gen (so stale
// ChainRefs fail their generation check), clears the lookup table, and
// evicts the flushed kind from the jump-TLB — before calling Reset.
// In pipelined mode the timing consumer may also hold translation
// pointers through trace records, so a pipeline drain must complete
// before Reset runs (the VMM drains before any insert that will
// flush).
//
// A zero-value Arena is not usable; construct with NewArena. maxSlabs
// bounds each span's slab count for arenas that are never reset (the
// VMM's shadow-block arena): once a span is full, carve requests fall
// back to the ordinary heap, so the arena's footprint stays bounded
// while shadow eviction churn keeps allocating.
type Arena struct {
	structs span[Translation]
	uops    span[fisa.MicroOp]
	exits   span[Exit]
	meta    span[UopMeta]
	refs    span[ChainRef]
}

// Full slab sizes, in elements. Sized so a typical basic block (tens of
// micro-ops) costs no slab allocation and a full code cache fits in a
// handful of slabs per span. A span's first slab is 1/firstSlabDiv of
// the full size and each next one doubles up to it, so a VM that
// translates a few thousand blocks and exits does not pay for (and
// zero) slabs sized for a full cache.
const (
	uopSlab    = 16384
	exitSlab   = 2048
	metaSlab   = 16384
	refSlab    = 4096
	structSlab = 512

	firstSlabDiv = 16
)

// NewArena returns an empty arena with unbounded growth (the natural
// choice for a code cache, whose capacity already bounds the live
// translation bytes between flushes).
func NewArena() *Arena { return newArena(0) }

// NewBoundedArena returns an arena that stops carving after maxSlabs
// slabs per span and falls back to heap allocation. Use for arenas
// that are never Reset, where unbounded carving would leak.
func NewBoundedArena(maxSlabs int) *Arena { return newArena(maxSlabs) }

func newArena(maxSlabs int) *Arena {
	return &Arena{
		structs: span[Translation]{slabSize: structSlab, maxSlabs: maxSlabs},
		uops:    span[fisa.MicroOp]{slabSize: uopSlab, maxSlabs: maxSlabs},
		exits:   span[Exit]{slabSize: exitSlab, maxSlabs: maxSlabs},
		meta:    span[UopMeta]{slabSize: metaSlab, maxSlabs: maxSlabs},
		refs:    span[ChainRef]{slabSize: refSlab, maxSlabs: maxSlabs},
	}
}

// Commit copies t into arena-backed storage and returns the copy. The
// argument is typically a translator's reusable scratch translation;
// it is left untouched and may be reused for the next build. The
// copy's Gen is the generation already stored in its struct slot, so
// ChainRefs recorded against a previous occupant of the slot (bumped
// at the last flush) remain detectably stale.
func (a *Arena) Commit(t *Translation) *Translation {
	nt := a.structs.carveOne()
	if nt == nil {
		nt = &Translation{}
	}
	gen := nt.Gen
	*nt = *t
	nt.Gen = gen
	nt.Uops = commitSlice(&a.uops, t.Uops)
	nt.Exits = commitSlice(&a.exits, t.Exits)
	nt.Meta = commitSlice(&a.meta, t.Meta)
	nt.In = nil
	return nt
}

// NewRef carves one inbound chain-edge node (heap fallback when the
// span is capped).
func (a *Arena) NewRef() *ChainRef {
	if r := a.refs.carveOne(); r != nil {
		return r
	}
	return &ChainRef{}
}

// Reset reclaims every carve at once. See the type comment for the
// obligations the owner must discharge first.
func (a *Arena) Reset() {
	a.structs.reset()
	a.uops.reset()
	a.exits.reset()
	a.meta.reset()
	a.refs.reset()
}

func commitSlice[T any](s *span[T], src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := s.carve(len(src))
	if dst == nil {
		dst = make([]T, len(src))
	}
	copy(dst, src)
	return dst
}

// span is one slab-carving region. Slabs are retained across resets,
// so a span's allocation count converges on its peak-footprint slab
// count. Carved slices are full (three-index) slices: appending past
// one can never scribble on a neighbouring carve.
type span[T any] struct {
	slabs    [][]T
	cur      int // slab being carved
	off      int // carve cursor within slabs[cur]
	next     int // size of the next slab to allocate (0: slabSize/firstSlabDiv)
	slabSize int // full slab size
	maxSlabs int // 0 = unbounded
}

// grow appends a slab of the next size in the geometric series, widened
// to hold at least n (n <= slabSize) elements. It reports false when the
// span is capped and full.
func (s *span[T]) grow(n int) bool {
	if s.maxSlabs > 0 && len(s.slabs) >= s.maxSlabs {
		return false
	}
	size := max(s.next, s.slabSize/firstSlabDiv)
	for size < n {
		size *= 2
	}
	s.slabs = append(s.slabs, make([]T, size))
	s.next = min(2*size, s.slabSize)
	return true
}

// carve returns a length-n slice, or nil when the span is capped and
// full. After a reset the memory retains the previous epoch's bits, so
// callers must overwrite every element (commitSlice copies the full
// length). Requests larger than the full slab size get a dedicated slab
// (counted against the cap).
func (s *span[T]) carve(n int) []T {
	if n > s.slabSize {
		if s.maxSlabs > 0 && len(s.slabs) >= s.maxSlabs {
			return nil
		}
		// Dedicated slab, inserted before the carve point so the
		// cursor's slab stays partially free.
		big := make([]T, n)
		s.slabs = append(s.slabs, nil)
		copy(s.slabs[s.cur+1:], s.slabs[s.cur:])
		s.slabs[s.cur] = big
		s.cur++
		return big
	}
	for {
		if s.cur < len(s.slabs) {
			sl := s.slabs[s.cur]
			if s.off+n <= len(sl) {
				out := sl[s.off : s.off+n : s.off+n]
				s.off += n
				return out
			}
			s.cur++
			s.off = 0
			continue
		}
		if !s.grow(n) {
			return nil
		}
	}
}

// carveOne returns a pointer to one element, preserving whatever the
// slot held before (struct recycling keeps the previous occupant's
// Gen readable), or nil when capped and full.
func (s *span[T]) carveOne() *T {
	for {
		if s.cur < len(s.slabs) {
			sl := s.slabs[s.cur]
			if s.off < len(sl) {
				out := &sl[s.off]
				s.off++
				return out
			}
			s.cur++
			s.off = 0
			continue
		}
		if !s.grow(1) {
			return nil
		}
	}
}

func (s *span[T]) reset() {
	s.cur = 0
	s.off = 0
}
