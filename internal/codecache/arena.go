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
//
// The zero value is an empty, unbounded arena (NewArena). An arena
// that is never reset (the VMM's shadow-block arena) is bounded by the
// number of translations it carves: past that, Commit and NewRef fall
// back to the ordinary heap, so the arena's footprint stays bounded
// while shadow eviction churn keeps allocating.
type Arena struct {
	structs span[Translation]
	uops    span[fisa.MicroOp]
	exits   span[Exit]
	meta    span[UopMeta]
	refs    span[ChainRef]

	limit  int // translations carved before falling back to the heap; 0 = unbounded
	carved int // translations carved since the last Reset
}

// Slab sizes, in elements: every slab of a span has its span's size.
// One slab holds a few dozen typical basic blocks, so a VM that
// translates a few thousand blocks and exits allocates (and zeroes)
// about what it carves. A doubling series would take fewer slabs to
// fill a cache but leaves up to half of its last slab idle, and a cold
// VM never fills one.
const (
	uopSlab    = 1024
	exitSlab   = 128
	metaSlab   = 1024
	refSlab    = 256
	structSlab = 32
)

// NewArena returns an empty arena with unbounded growth (the natural
// choice for a code cache, whose capacity already bounds the live
// translation bytes between flushes).
func NewArena() *Arena { return &Arena{} }

// NewBoundedArena returns an arena that carves at most maxTranslations
// translations and then falls back to heap allocation. Use for arenas
// that are never Reset, where unbounded carving would leak.
func NewBoundedArena(maxTranslations int) *Arena { return &Arena{limit: maxTranslations} }

// full reports whether the arena has carved its bound.
func (a *Arena) full() bool { return a.limit > 0 && a.carved >= a.limit }

// Commit copies t into arena-backed storage and returns the copy. The
// argument is typically a translator's reusable scratch translation;
// it is left untouched and may be reused for the next build. The
// copy's Gen is the generation already stored in its struct slot, so
// ChainRefs recorded against a previous occupant of the slot (bumped
// at the last flush) remain detectably stale.
func (a *Arena) Commit(t *Translation) *Translation {
	if a.full() {
		nt := *t
		nt.Uops = append([]fisa.MicroOp(nil), t.Uops...)
		nt.Exits = append([]Exit(nil), t.Exits...)
		nt.Meta = append([]UopMeta(nil), t.Meta...)
		nt.In, nt.Gen = nil, 0
		return &nt
	}
	a.carved++
	nt := &a.structs.carve(1, structSlab)[0]
	gen := nt.Gen
	*nt = *t
	nt.Gen = gen
	nt.Uops = commitSlice(&a.uops, t.Uops, uopSlab)
	nt.Exits = commitSlice(&a.exits, t.Exits, exitSlab)
	nt.Meta = commitSlice(&a.meta, t.Meta, metaSlab)
	nt.In = nil
	return nt
}

// NewRef carves one inbound chain-edge node (from the heap once the
// arena has carved its bound).
func (a *Arena) NewRef() *ChainRef {
	if a.full() {
		return &ChainRef{}
	}
	return &a.refs.carve(1, refSlab)[0]
}

// Reset reclaims every carve at once. See the type comment for the
// obligations the owner must discharge first.
func (a *Arena) Reset() {
	a.structs.reset()
	a.uops.reset()
	a.exits.reset()
	a.meta.reset()
	a.refs.reset()
	a.carved = 0
}

func commitSlice[T any](s *span[T], src []T, slab int) []T {
	if len(src) == 0 {
		return nil
	}
	dst := s.carve(len(src), slab)
	copy(dst, src)
	return dst
}

// span is one slab-carving region. Slabs are retained across resets,
// so a span's allocation count converges on its peak-footprint slab
// count. Carved slices are full (three-index) slices: appending past
// one can never scribble on a neighbouring carve.
type span[T any] struct {
	slabs [][]T
	cur   int // slab being carved
	off   int // carve cursor within slabs[cur]
}

// carve returns a length-n slice. After a reset the memory retains the
// previous epoch's bits, so callers must overwrite every element
// (commitSlice copies the full length; Commit keeps only the struct
// slot's Gen). A carve that does not fit in what is left of the current
// slab moves on to the next one, skipping the tail; a new slab holds
// slab elements, and a request wider than that gets a dedicated slab of
// its own width.
func (s *span[T]) carve(n, slab int) []T {
	if n > slab {
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
		s.slabs = append(s.slabs, make([]T, slab))
	}
}

func (s *span[T]) reset() {
	s.cur = 0
	s.off = 0
}
