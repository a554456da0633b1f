package codecache

import (
	"math/rand"
	"testing"

	"codesignvm/internal/fisa"
)

func slabSizes[T any](s *span[T]) []int {
	out := make([]int, len(s.slabs))
	for i, sl := range s.slabs {
		out[i] = len(sl)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSlack asserts one span's allocation policy after a stream of
// carves totalling carved elements, wide of them in carves wider than a
// slab, the widest of the others largest: every slab is either one of
// the span's fixed size or a dedicated slab holding one wide carve, and
// what the fixed-size slabs hold beyond what was carved into them is at
// most one slab (the last one's free tail) plus one skipped tail per
// slab boundary, each shorter than the widest carve.
func checkSlack[T any](t *testing.T, name string, s *span[T], slab, carved, wide, largest int) {
	t.Helper()
	alloc, regular, dedicated := 0, 0, 0
	for _, sl := range s.slabs {
		switch {
		case len(sl) == slab:
			regular++
			alloc += len(sl)
		case len(sl) < slab:
			t.Errorf("%s: a %d-element slab, want %d or a dedicated one wider", name, len(sl), slab)
		default:
			dedicated += len(sl)
		}
	}
	if dedicated != wide {
		t.Errorf("%s: slabs wider than %d hold %d elements, want %d (the carves wider than a slab)", name, slab, dedicated, wide)
	}
	if regular == 0 {
		t.Fatalf("%s: no %d-element slab allocated", name, slab)
	}
	carved -= wide
	if bound := carved + slab + (regular-1)*(largest-1); alloc > bound {
		t.Errorf("%s: %d elements in %d slabs for %d carved, bound %d", name, alloc, regular, carved, bound)
	}
	t.Logf("%s: %d slabs, %d elements allocated for %d carved", name, len(s.slabs), alloc+dedicated, carved+wide)
}

// TestArenaSlackBounded: a seeded stream of mixed-size translations —
// basic blocks, one superblock-sized and one wider than any slab —
// costs each span one slab size, with slack bounded by one slab plus
// the skipped slab tails; carves are full slices that never alias.
func TestArenaSlackBounded(t *testing.T) {
	a := NewArena()
	rng := rand.New(rand.NewSource(1))
	var (
		committed            []*Translation
		uops, exits, refs    int
		maxUops, maxExits    int // widest carves that fit in a slab
		superblock, tooWide  = 300, uopSlab + 476
		superExits, wideExit = 8, exitSlab + 72
	)
	for i := 0; i < 3000; i++ {
		nu, ne := 1+rng.Intn(60), rng.Intn(3)
		switch i {
		case 1000:
			nu, ne = superblock, superExits
		case 2000:
			nu, ne = tooWide, wideExit
		}
		tr := &Translation{EntryPC: uint32(i), Uops: make([]fisa.MicroOp, nu), Exits: make([]Exit, ne), Meta: make([]UopMeta, nu)}
		for j := range tr.Uops {
			tr.Uops[j].Imm = int32(j)
		}
		got := a.Commit(tr)
		got.Uops[0].X86PC = uint32(i) // tag to detect aliasing
		committed = append(committed, got)
		uops, exits = uops+nu, exits+ne
		if nu <= uopSlab {
			maxUops = max(maxUops, nu)
		}
		if ne <= exitSlab {
			maxExits = max(maxExits, ne)
		}
		if rng.Intn(2) == 0 {
			a.NewRef()
			refs++
		}
	}
	for i, c := range committed {
		n := len(c.Uops)
		if cap(c.Uops) != n || cap(c.Meta) != n || cap(c.Exits) != len(c.Exits) ||
			c.EntryPC != uint32(i) || c.Uops[0].X86PC != uint32(i) || c.Uops[n-1].Imm != int32(n-1) {
			t.Fatalf("commit %d: %d uops (cap %d), entry %#x, tag %d", i, n, cap(c.Uops), c.EntryPC, c.Uops[0].X86PC)
		}
	}
	checkSlack(t, "uops", &a.uops, uopSlab, uops, tooWide, maxUops)
	checkSlack(t, "meta", &a.meta, metaSlab, uops, tooWide, maxUops)
	checkSlack(t, "exits", &a.exits, exitSlab, exits, wideExit, maxExits)
	checkSlack(t, "refs", &a.refs, refSlab, refs, 0, 1)
	checkSlack(t, "structs", &a.structs, structSlab, len(committed), 0, 1)
}

// TestArenaResetReusesSlabs: after Reset the same slabs are carved
// again in order; a second epoch of the same footprint allocates none.
func TestArenaResetReusesSlabs(t *testing.T) {
	a := NewArena()
	tr := &Translation{Uops: make([]fisa.MicroOp, 40), Exits: make([]Exit, 2), Meta: make([]UopMeta, 40)}
	epoch := func() {
		for i := 0; i < 2000; i++ {
			a.Commit(tr)
			a.NewRef()
		}
	}
	epoch()
	before := slabSizes(&a.uops)
	first := &a.uops.slabs[0][0]
	a.Reset()
	if n := testing.AllocsPerRun(1, func() { epoch(); a.Reset() }); n != 0 {
		t.Errorf("second epoch allocated %v times, want 0", n)
	}
	if after := slabSizes(&a.uops); !equalInts(before, after) {
		t.Errorf("slabs changed across reset: %v → %v", before, after)
	}
	if got := a.Commit(tr); &got.Uops[0] != first {
		t.Error("first carve after Reset is not the start of the first slab")
	}
}

// TestArenaLargeCarves: a carve that does not fit in the current slab's
// tail skips it for a new slab of the span's one size; one wider than a
// slab gets a dedicated slab before the cursor, and carving resumes in
// the slab it interrupted.
func TestArenaLargeCarves(t *testing.T) {
	var s span[int]
	const slab = 100
	if got := s.carve(10, slab); len(got) != 10 {
		t.Fatalf("carve(10) = %d elements", len(got))
	}
	if got := s.carve(95, slab); len(got) != 95 {
		t.Fatalf("carve(95) = %d elements", len(got))
	}
	if got, want := slabSizes(&s), []int{slab, slab}; !equalInts(got, want) {
		t.Fatalf("slab sizes %v, want %v", got, want)
	}
	if got := s.carve(5000, slab); len(got) != 5000 {
		t.Fatalf("carve(5000) = %d elements", len(got))
	}
	if got, want := slabSizes(&s), []int{slab, 5000, slab}; !equalInts(got, want) {
		t.Fatalf("slab sizes %v, want %v", got, want)
	}
	if got := s.carve(5, slab); &got[0] != &s.slabs[2][95] {
		t.Fatal("carve(5) after the dedicated slab does not fill the interrupted slab's tail")
	}
	s.carve(1, slab) // the interrupted slab is full: a new one of the one size
	if got, want := slabSizes(&s), []int{slab, 5000, slab, slab}; !equalInts(got, want) {
		t.Fatalf("slab sizes %v, want %v", got, want)
	}
}

// TestBoundedArenaFallsBackToHeap: once the arena has carved its bound
// in translations, Commit keeps working from the heap and the arena
// stops growing.
func TestBoundedArenaFallsBackToHeap(t *testing.T) {
	a := NewBoundedArena(5)
	tr := &Translation{Uops: make([]fisa.MicroOp, 1000), Exits: make([]Exit, 1), Gen: 7}
	for i := 0; i < 20; i++ {
		got := a.Commit(tr)
		if len(got.Uops) != 1000 || len(got.Exits) != 1 || got.Gen != 0 {
			t.Fatalf("commit %d: %d uops, %d exits, gen %d", i, len(got.Uops), len(got.Exits), got.Gen)
		}
		got.Uops[0].Imm = 1
		if tr.Uops[0].Imm != 0 {
			t.Fatalf("commit %d aliases its source", i)
		}
	}
	if n, m := len(a.uops.slabs), len(a.structs.slabs); n != 5 || m != 1 {
		t.Errorf("bounded arena holds %d uop and %d struct slabs, want 5 and 1", n, m)
	}
	if a.NewRef(); len(a.refs.slabs) != 0 {
		t.Error("a full bounded arena carved a chain ref")
	}
}
