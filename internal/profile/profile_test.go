package profile

import "testing"

func TestSoftwareThreshold(t *testing.T) {
	d := NewSoftware(5)
	pc := uint32(0x400000)
	for i := 1; i <= 4; i++ {
		if d.RecordEntry(pc, 10) {
			t.Fatalf("fired at count %d, threshold 5", i)
		}
	}
	if !d.RecordEntry(pc, 10) {
		t.Fatal("did not fire at the threshold")
	}
	if d.RecordEntry(pc, 10) {
		t.Fatal("fired twice for the same region")
	}
	if d.Count(pc) != 6 {
		t.Errorf("count = %d", d.Count(pc))
	}
}

// TestSoftwareThresholdZero: a zero threshold means hot on first entry,
// reported once like any other.
func TestSoftwareThresholdZero(t *testing.T) {
	d := NewSoftware(0)
	if !d.RecordEntry(7, 1) {
		t.Fatal("threshold 0 did not fire on the first entry")
	}
	if d.RecordEntry(7, 1) {
		t.Fatal("fired twice for the same region")
	}
}

// TestDetectorsClear: after Clear a detector has no counts and its
// regions can cross the threshold again (the superblock-cache flush).
func TestDetectorsClear(t *testing.T) {
	type detector interface {
		RecordEntry(pc uint32, instrs int) bool
		Count(pc uint32) uint64
		Clear()
	}
	for name, d := range map[string]detector{"software": NewSoftware(2), "bbb": NewBBB(16, 2)} {
		pc := uint32(0x1)
		d.RecordEntry(pc, 1)
		if !d.RecordEntry(pc, 1) {
			t.Fatalf("%s: did not fire at the threshold", name)
		}
		d.Clear()
		if d.Count(pc) != 0 {
			t.Errorf("%s: clear kept the count", name)
		}
		d.RecordEntry(pc, 1)
		if !d.RecordEntry(pc, 1) {
			t.Errorf("%s: region cannot re-fire after clear", name)
		}
	}
}

func TestBBBThresholdAndConflicts(t *testing.T) {
	b := NewBBB(16, 3)
	pc := uint32(0x400010)
	b.RecordEntry(pc, 1)
	b.RecordEntry(pc, 1)
	if !b.RecordEntry(pc, 1) {
		t.Fatal("BBB did not fire at threshold")
	}
	if b.RecordEntry(pc, 1) {
		t.Fatal("BBB fired twice")
	}

	// A conflicting PC (same index) evicts and resets the count: the
	// hardware detector loses history under conflicts.
	other := conflictingPC(b, pc)
	b.RecordEntry(other, 1)
	if b.Evictions == 0 {
		t.Error("conflict did not evict")
	}
	if b.Count(pc) != 0 {
		t.Errorf("evicted entry still counts %d", b.Count(pc))
	}
}

// conflictingPC finds a different PC mapping to the same BBB entry.
func conflictingPC(b *BBB, pc uint32) uint32 {
	want := b.index(pc)
	for cand := pc + 2; ; cand += 2 {
		if b.index(cand) == want {
			return cand
		}
	}
}

func TestBBBPowerOfTwoPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two size")
		}
	}()
	NewBBB(100, 5)
}

func TestEdgeProfile(t *testing.T) {
	p := NewEdgeProfile()
	p.Record(1, 2)
	p.Record(1, 2)
	p.Record(1, 3)
	if p.Count(1, 2) != 2 || p.Count(1, 3) != 1 || p.Count(9, 9) != 0 {
		t.Errorf("counts wrong: %d %d %d", p.Count(1, 2), p.Count(1, 3), p.Count(9, 9))
	}
	// Edges are directed, and an edge into or out of address 0 is an
	// edge like any other.
	p.Record(2, 1)
	p.Record(0, 0)
	if p.Count(2, 1) != 1 || p.Count(1, 2) != 2 || p.Count(0, 0) != 1 {
		t.Errorf("counts wrong: %d %d %d", p.Count(2, 1), p.Count(1, 2), p.Count(0, 0))
	}
}
