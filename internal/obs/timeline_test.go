package obs

import (
	"bytes"
	"strings"
	"testing"
)

// slice builds a minimal cumulative snapshot for boundary end with n
// total instructions.
func slice(end float64, n uint64) TimeSlice {
	return TimeSlice{EndCycles: end, Instrs: n, BBTInstrs: n}
}

// TestTimelineSpecDefaults: a recorder's timeline samples at the
// constant spec — the one every persisted timeline was taken at.
func TestTimelineSpecDefaults(t *testing.T) {
	o := NewObserver(nil)
	o.EnableTimeline()
	tl := o.NewRun("m/a").Timeline()
	if got := tl.interval; got != TimelineInterval {
		t.Fatalf("interval = %g, want %d", got, TimelineInterval)
	}
	if got := tl.NextBoundary(); got != TimelineInterval {
		t.Fatalf("first boundary = %g, want %d", got, TimelineInterval)
	}
	if got := cap(tl.slices); got != TimelineSlices {
		t.Fatalf("capacity = %d, want %d", got, TimelineSlices)
	}
}

func TestTimelineAppendAdvancesBoundary(t *testing.T) {
	tl := newTimeline(100, 8)
	next := tl.Append(slice(100, 10))
	if next != 200 {
		t.Fatalf("next boundary after first append = %g, want 200", next)
	}
	// A block overshooting the boundary still stamps the nominal grid
	// point; the following boundary is nominal+interval.
	next = tl.Append(slice(200, 25))
	if next != 300 {
		t.Fatalf("next boundary = %g, want 300", next)
	}
	if tl.Len() != 2 {
		t.Fatalf("len = %d, want 2", tl.Len())
	}
}

// TestTimelineCoalesce fills a timeline past capacity and checks the
// pair-collapse: capacity never exceeded, interval doubled, and the
// surviving slices are the pair-end (even-boundary) snapshots with
// cumulative values intact.
func TestTimelineCoalesce(t *testing.T) {
	tl := newTimeline(10, 4)
	for i := 1; i <= 4; i++ {
		tl.Append(slice(float64(10*i), uint64(100*i)))
	}
	if tl.interval != 10 {
		t.Fatalf("interval before overflow = %g, want 10", tl.interval)
	}
	// The 5th append first collapses {10,20,30,40} -> {20,40}.
	next := tl.Append(slice(50, 500))
	if tl.interval != 20 {
		t.Fatalf("interval after coalesce = %g, want 20", tl.interval)
	}
	if next != 70 {
		t.Fatalf("next boundary = %g, want 50+20=70", next)
	}
	got := tl.Slices()
	wantEnds := []float64{20, 40, 50}
	if len(got) != len(wantEnds) {
		t.Fatalf("len = %d, want %d", len(got), len(wantEnds))
	}
	for i, w := range wantEnds {
		if got[i].EndCycles != w {
			t.Fatalf("slice %d ends at %g, want %g", i, got[i].EndCycles, w)
		}
	}
	if got[0].Instrs != 200 || got[1].Instrs != 400 {
		t.Fatalf("coalesced slices lost cumulative values: %+v", got[:2])
	}
	// Long-run invariant: length never exceeds capacity.
	for i := 6; i < 200; i++ {
		tl.Append(slice(float64(10*i), uint64(100*i)))
		if tl.Len() > 4 {
			t.Fatalf("timeline exceeded capacity: %d", tl.Len())
		}
	}
}

func TestTimelineAppendFinal(t *testing.T) {
	tl := newTimeline(100, 8)
	tl.Append(slice(100, 10))
	// Run ends mid-interval: partial slice recorded, boundary clock
	// untouched (a later Run on the same VM resumes the grid).
	tl.AppendFinal(slice(140, 14))
	if tl.Len() != 2 || tl.NextBoundary() != 200 {
		t.Fatalf("len=%d next=%g, want 2/200", tl.Len(), tl.NextBoundary())
	}
	// Duplicate or non-advancing final slices are dropped.
	tl.AppendFinal(slice(140, 14))
	tl.AppendFinal(slice(120, 12))
	if tl.Len() != 2 {
		t.Fatalf("duplicate final slice recorded: len=%d", tl.Len())
	}
}

func TestTimelineLastIntervalIPC(t *testing.T) {
	tl := newTimeline(100, 8)
	if _, ok := tl.LastIntervalIPC(); ok {
		t.Fatal("IPC reported with no slices")
	}
	tl.Append(slice(100, 50))
	if _, ok := tl.LastIntervalIPC(); ok {
		t.Fatal("IPC reported with one slice")
	}
	tl.Append(slice(200, 250))
	ipc, ok := tl.LastIntervalIPC()
	if !ok || ipc != 2.0 {
		t.Fatalf("interval IPC = %g,%v, want 2,true", ipc, ok)
	}
}

func TestTimelineRows(t *testing.T) {
	tl := newTimeline(100, 8)
	tl.Append(TimeSlice{EndCycles: 100, Instrs: 50, InterpInstrs: 50, VMMCycles: 10, BBTUsed: 64})
	tl.Append(TimeSlice{EndCycles: 200, Instrs: 250, InterpInstrs: 50, BBTInstrs: 200, VMMCycles: 15, BBTUsed: 96})
	rows := TimelineRows(tl.Slices())
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	r := rows[1]
	if r.Cycles != 100 || r.Instrs != 200 || r.IPC != 2.0 || r.AggIPC != 1.25 {
		t.Fatalf("derived row wrong: %+v", r)
	}
	if r.InterpInstrs != 0 || r.BBTInstrs != 200 || r.VMMCycles != 5 {
		t.Fatalf("per-interval deltas wrong: %+v", r)
	}
	if r.BBTUsed != 96 {
		t.Fatalf("gauge column must be point-in-time, got %d", r.BBTUsed)
	}
}

// TestWriteTimelines: the export renders the noted runs' timelines,
// one CSV table with a leading tag column; a run without a timeline
// contributes no rows.
func TestWriteTimelines(t *testing.T) {
	o := NewObserver(nil)
	o.EnableTimeline()
	o.Note("m/a", "k1", nil, TimelineOf([]TimeSlice{slice(100, 120), slice(200, 300)}))
	o.Note("m/b", "k2", nil, nil)

	var csv bytes.Buffer
	n, err := o.WriteTimelines(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("wrote %d runs, want 1", n)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header+2:\n%s", len(lines), csv.String())
	}
	if lines[0] != timelineCSVHeader {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "m/a,0,100,100,120,1.2,1.2,") {
		t.Fatalf("CSV row = %q", lines[1])
	}
}

// TestObserverTimelinePlumbing: EnableTimeline affects only recorders
// minted afterwards, and each run's timeline reports its own newest
// interval IPC (what /runs serves as interval_ipc).
func TestObserverTimelinePlumbing(t *testing.T) {
	o := NewObserver(nil)
	before := o.NewRun("before")
	if o.TimelineEnabled() {
		t.Fatal("timeline enabled before EnableTimeline")
	}
	o.EnableTimeline()
	if !o.TimelineEnabled() {
		t.Fatal("TimelineEnabled false after EnableTimeline")
	}
	if before.Timeline() != nil {
		t.Fatal("pre-enable recorder grew a timeline")
	}
	a := o.NewRun("a")
	if _, ok := a.Timeline().LastIntervalIPC(); ok {
		t.Fatal("interval IPC with no samples")
	}
	b := o.NewRun("b")
	a.Timeline().Append(slice(100, 100))
	a.Timeline().Append(slice(200, 200))
	b.Timeline().Append(slice(100, 300))
	b.Timeline().Append(slice(200, 700))
	if ipc, ok := a.Timeline().LastIntervalIPC(); !ok || ipc != 1.0 {
		t.Fatalf("run a interval IPC = %g,%v, want 1,true", ipc, ok)
	}
	if ipc, ok := b.Timeline().LastIntervalIPC(); !ok || ipc != 4.0 {
		t.Fatalf("run b interval IPC = %g,%v, want 4,true", ipc, ok)
	}
	var nilObs *Observer
	if nilObs.TimelineEnabled() {
		t.Fatal("nil observer reports timeline enabled")
	}
	nilObs.EnableTimeline() // must not panic
}
