package codecache

import (
	"testing"

	"codesignvm/internal/fisa"
)

func mkTrans(pc uint32, size int) *Translation {
	return &Translation{
		Kind:    KindBBT,
		EntryPC: pc,
		Size:    size,
		Exits:   []Exit{{Kind: ExitFall, Target: pc + 16}},
	}
}

func TestInsertLookup(t *testing.T) {
	c := New("test", 0x1000, 4096)
	tr, flushed, err := c.Insert(mkTrans(0x400000, 100))
	if err != nil || flushed {
		t.Fatalf("insert: %v flushed=%v", err, flushed)
	}
	if tr.Addr != 0x1000 {
		t.Errorf("first translation at %#x, want base", tr.Addr)
	}
	if got := c.Lookup(0x400000); got != tr {
		t.Error("lookup failed")
	}
	if c.Lookup(0x400001) != nil {
		t.Error("bogus lookup hit")
	}
	s := c.Stats()
	if s.Inserts != 1 || s.Lookups != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAllocationAlignment(t *testing.T) {
	c := New("test", 0x1000, 4096)
	a, _, _ := c.Insert(mkTrans(0x400000, 10))
	b, _, _ := c.Insert(mkTrans(0x400100, 10))
	if b.Addr%4 != 0 {
		t.Errorf("second translation unaligned: %#x", b.Addr)
	}
	if b.Addr <= a.Addr {
		t.Errorf("allocation not monotone: %#x then %#x", a.Addr, b.Addr)
	}
}

func TestCapacityFlush(t *testing.T) {
	c := New("test", 0, 256)
	var last *Translation
	flushCount := 0
	for i := 0; i < 10; i++ {
		tr := mkTrans(uint32(0x400000+i*16), 100)
		_, flushed, err := c.Insert(tr)
		if err != nil {
			t.Fatal(err)
		}
		if flushed {
			flushCount++
			// Previously inserted translations are gone.
			if last != nil && c.table[last.EntryPC] != nil {
				t.Error("flush left old translations")
			}
		}
		last = tr
	}
	if flushCount == 0 {
		t.Error("capacity never forced a flush")
	}
	if c.Stats().Flushes == 0 {
		t.Error("flush stat not recorded")
	}
}

func TestOversizeTranslation(t *testing.T) {
	c := New("test", 0, 256)
	if _, _, err := c.Insert(mkTrans(0x1, 512)); err == nil {
		t.Error("oversize insert should fail")
	}
	if _, _, err := c.Insert(&Translation{EntryPC: 2}); err == nil {
		t.Error("zero-size insert should fail")
	}
}

func TestChainingAndEpochs(t *testing.T) {
	c := New("test", 0, 4096)
	a, _, _ := c.Insert(mkTrans(0x400000, 64))
	b, _, _ := c.Insert(mkTrans(0x400040, 64))
	c.Chain(a, 0, b)
	if a.Exits[0].Chained != b {
		t.Error("chain not followed")
	}
	// Unchain (the supersede path) severs the source exit eagerly.
	b.Unchain()
	if a.Exits[0].Chained != nil {
		t.Error("unchain left the source exit linked")
	}
	// Flush severs chains the same way before recycling the storage,
	// and bumps each dead translation's generation so stale ChainRefs
	// can never resolve to the slot's next occupant. The flushed
	// translations themselves must not be dereferenced afterwards.
	c.Chain(a, 0, b)
	genA, genB := a.Gen, b.Gen
	c.Flush()
	if a.Gen == genA || b.Gen == genB {
		t.Error("flush did not bump dead translations' generations")
	}
}

func TestFusedFraction(t *testing.T) {
	tr := &Translation{NumUops: 10, FusedPairs: 2}
	if f := tr.FusedFraction(); f != 0.4 {
		t.Errorf("fused fraction = %f, want 0.4", f)
	}
	empty := &Translation{}
	if empty.FusedFraction() != 0 {
		t.Error("empty translation fraction should be 0")
	}
}

func TestExitKindStrings(t *testing.T) {
	kinds := []ExitKind{ExitFall, ExitTaken, ExitIndirect, ExitHalt, ExitSide}
	for _, k := range kinds {
		if k.String() == "exit?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if KindBBT.String() != "BBT" || KindSBT.String() != "SBT" {
		t.Error("kind names wrong")
	}
}

func TestUsedAndLen(t *testing.T) {
	c := New("test", 0x100, 4096)
	c.Insert(mkTrans(1, 10))
	c.Insert(mkTrans(2, 10))
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	if c.Used() < 20 {
		t.Errorf("used = %d", c.Used())
	}
	_ = fisa.MicroOp{} // keep the import for translation types
}
