package codecache

import (
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

// TestArenaSlabsGrowGeometrically: a span starts at 1/16 of the full
// slab, doubles up to it and stays there; carves never straddle slabs
// and never alias.
func TestArenaSlabsGrowGeometrically(t *testing.T) {
	a := NewArena()
	src := make([]fisa.MicroOp, 100)
	for i := range src {
		src[i].Imm = int32(i)
	}
	var carved [][]fisa.MicroOp
	total := 0
	for total < 3*uopSlab {
		got := commitSlice(&a.uops, src)
		got[0].X86PC = uint32(len(carved)) // tag to detect aliasing
		carved = append(carved, got)
		total += len(src)
	}
	want := []int{uopSlab / 16, uopSlab / 8, uopSlab / 4, uopSlab / 2, uopSlab, uopSlab, uopSlab}
	if got := slabSizes(&a.uops); !equalInts(got, want) {
		t.Fatalf("slab sizes %v, want %v", got, want)
	}
	for i, c := range carved {
		if len(c) != len(src) || cap(c) != len(src) || c[0].X86PC != uint32(i) || c[99].Imm != 99 {
			t.Fatalf("carve %d: len %d cap %d tag %d", i, len(c), cap(c), c[0].X86PC)
		}
	}
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

// TestArenaLargeCarves: a carve wider than the next slab in the series
// (but within a full slab) widens that slab; one wider than a full slab
// gets a dedicated slab and leaves the series where it was.
func TestArenaLargeCarves(t *testing.T) {
	var s span[int]
	s.slabSize = 1600
	if got := s.carve(10); len(got) != 10 {
		t.Fatalf("carve(10) = %d elements", len(got))
	}
	if got := s.carve(700); len(got) != 700 {
		t.Fatalf("carve(700) = %d elements", len(got))
	}
	if got, want := slabSizes(&s), []int{100, 800}; !equalInts(got, want) {
		t.Fatalf("slab sizes %v, want %v", got, want)
	}
	if got := s.carve(5000); len(got) != 5000 {
		t.Fatalf("carve(5000) = %d elements", len(got))
	}
	s.carve(200) // exhausts the 800 slab: the series resumes at full size
	if got, want := slabSizes(&s), []int{100, 5000, 800, 1600}; !equalInts(got, want) {
		t.Fatalf("slab sizes %v, want %v", got, want)
	}
}

// TestBoundedArenaFallsBackToHeap: once maxSlabs slabs are carved full,
// Commit keeps working from the heap and the arena stops growing.
func TestBoundedArenaFallsBackToHeap(t *testing.T) {
	a := NewBoundedArena(2)
	tr := &Translation{Uops: make([]fisa.MicroOp, 1000), Exits: make([]Exit, 1)}
	for i := 0; i < 20; i++ {
		got := a.Commit(tr)
		if len(got.Uops) != 1000 || len(got.Exits) != 1 {
			t.Fatalf("commit %d: %d uops, %d exits", i, len(got.Uops), len(got.Exits))
		}
	}
	if n := len(a.uops.slabs); n != 2 {
		t.Errorf("bounded arena holds %d uop slabs, want 2", n)
	}
}
