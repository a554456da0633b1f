package attrib

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestCategoryNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		n := c.String()
		if n == "" || n == "attrib?" {
			t.Fatalf("category %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate category name %q", n)
		}
		seen[n] = true
	}
}

func TestSlotBucketing(t *testing.T) {
	p := New(Spec{RegionBase: 0x00400000, RegionShift: 12, RegionSlots: 4})
	cases := []struct {
		pc   uint32
		slot int
	}{
		{0x0, 0},        // below base → other
		{0x003FFFFF, 0}, // just below base
		{0x00400000, 1}, // base → first slot
		{0x00400FFF, 1}, // last byte of first slot
		{0x00401000, 2}, // second slot
		{0x00403FFF, 4}, // last slot
		{0x00404000, 0}, // past the grid → other
		{0xFFFFFFFF, 0}, // far past → other
	}
	for _, c := range cases {
		if got := p.slotOf(c.pc); got != c.slot {
			t.Errorf("slotOf(%#x) = %d, want %d", c.pc, got, c.slot)
		}
	}
}

func TestChargeAndSpanAccounting(t *testing.T) {
	p := New(Spec{RegionBase: 0x1000, RegionShift: 12, RegionSlots: 8})
	p.Charge(BBTTranslate, 0x1000, 83)
	// Span: fetch 10, dmiss 4, branch stalls 12→18 (delta 6), span 100.
	p.SpanOpen(0x1000, 10, 12)
	p.SpanDMiss(4)
	p.SpanClose(BBTExec, 100, 18)
	s := p.Finish(183)

	want := map[Category]float64{
		BBTTranslate: 83,
		IFetchStall:  10,
		DMissStall:   4,
		BPredStall:   6,
		BBTExec:      80, // 100 - 10 - 4 - 6
	}
	for c, v := range want {
		if s.Cat[c] != v {
			t.Errorf("Cat[%v] = %g, want %g", c, s.Cat[c], v)
		}
	}
	sum := 0.0
	for _, v := range s.Cat {
		sum += v
	}
	if sum != s.TotalCycles {
		t.Errorf("category sum %g != total %g", sum, s.TotalCycles)
	}
	if len(s.Regions) != 1 || s.Regions[0].Slot != 1 {
		t.Fatalf("regions = %+v, want one row for slot 1", s.Regions)
	}
	if s.Regions[0].Start(0x1000, 12) != 0x1000 {
		t.Errorf("region start = %#x, want 0x1000", s.Regions[0].Start(0x1000, 12))
	}
}

// TestFinishExactSum is the core invariant: after reconciliation, the
// fixed-order float64 sum of the categories equals the run total
// bit-for-bit, even for adversarial magnitudes.
func TestFinishExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		p := New(Spec{RegionSlots: 1})
		total := 0.0
		for i := 0; i < 200; i++ {
			c := Category(rng.Intn(int(NumCategories)))
			v := math.Exp(rng.Float64()*30 - 5) // spans ~13 decades
			p.Charge(c, uint32(rng.Uint64()), v)
			total += v
		}
		// The caller's total accumulates in a different order than the
		// per-category sums, so a residual is likely.
		s := p.Finish(total)
		sum := 0.0
		for _, v := range s.Cat {
			sum += v
		}
		if sum != total {
			t.Fatalf("trial %d: sum %b != total %b (residual %g)", trial, sum, total, s.Residual)
		}
	}
}

func TestNoteInstrsMilestones(t *testing.T) {
	p := New(Spec{Milestones: []uint64{100, 200, 500}})
	p.Charge(Interpret, 0, 45)
	p.NoteInstrs(150, 45) // crosses 100
	p.Charge(Interpret, 0, 45)
	p.NoteInstrs(600, 90) // crosses 200 and 500 at once
	s := p.Finish(90)
	if len(s.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(s.Phases))
	}
	wantM := []uint64{100, 200, 500}
	wantI := []uint64{150, 600, 600}
	wantC := []float64{45, 90, 90}
	for i, ph := range s.Phases {
		if ph.Milestone != wantM[i] || ph.Instrs != wantI[i] || ph.Cat[Interpret] != wantC[i] {
			t.Errorf("phase %d = %+v, want milestone %d instrs %d interp %g",
				i, ph, wantM[i], wantI[i], wantC[i])
		}
	}
}

func TestMerge(t *testing.T) {
	mk := func(slot int, v float64) *Snapshot {
		p := New(Spec{RegionBase: 0, RegionShift: 12, RegionSlots: 8, Milestones: []uint64{10}})
		p.Charge(Chain, uint32(slot-1)<<12, v)
		p.NoteInstrs(10, v)
		return p.Finish(v)
	}
	a, b := mk(2, 5), mk(2, 7)
	c := mk(4, 11)
	m := Merge(a, b, nil, c)
	if m.TotalCycles != 23 || m.Cat[Chain] != 23 {
		t.Fatalf("merged totals = %g/%g, want 23/23", m.TotalCycles, m.Cat[Chain])
	}
	if len(m.Regions) != 2 || m.Regions[0].Slot != 2 || m.Regions[1].Slot != 4 {
		t.Fatalf("merged regions = %+v", m.Regions)
	}
	if m.Regions[0].Cat[Chain] != 12 || m.Regions[1].Cat[Chain] != 11 {
		t.Fatalf("merged region cycles = %+v", m.Regions)
	}
	if len(m.Phases) != 1 || m.Phases[0].Cat[Chain] != 23 {
		t.Fatalf("merged phases = %+v", m.Phases)
	}
}

func TestWriteCollapsed(t *testing.T) {
	p := New(Spec{RegionBase: 0x00400000, RegionShift: 12, RegionSlots: 8})
	p.Charge(BBTTranslate, 0x00400010, 83.4)
	p.Charge(BBTExec, 0x00401000, 512)
	p.Charge(Chain, 0x00000007, 30)       // below base → other
	p.Charge(CacheFlush, 0x00400000, 0.2) // rounds to 0 → omitted
	s := p.Finish(625.6)

	var sb strings.Builder
	if err := s.WriteCollapsed(&sb); err != nil {
		t.Fatal(err)
	}
	want := "bbt-translate;0x00400000 83\n" +
		"bbt-exec;0x00401000 512\n" +
		"chain;other 30\n"
	if sb.String() != want {
		t.Errorf("collapsed output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestSpecKeyStable(t *testing.T) {
	k := Spec{RegionBase: 0x00400000, Milestones: []uint64{1, 2}}.Key()
	want := "base=0x400000 shift=12 slots=256 ms=[1 2]"
	if k != want {
		t.Errorf("Key() = %q, want %q", k, want)
	}
	if (Spec{}).Key() == k {
		t.Error("distinct specs share a key")
	}
}

// The charge path must not allocate: fixed arrays plus one flat grid.
func TestChargeZeroAlloc(t *testing.T) {
	p := New(Spec{})
	pc := uint32(0)
	if n := testing.AllocsPerRun(1000, func() {
		p.Charge(Chain, pc, 1)
		p.SpanOpen(pc, 1, 0)
		p.SpanDMiss(1)
		p.SpanClose(Interpret, 5, 0)
		pc += 64
	}); n != 0 {
		t.Errorf("charge path allocates %v per op, want 0", n)
	}
}
