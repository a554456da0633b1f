package obs

import (
	"bytes"
	"fmt"
	"testing"

	"codesignvm/internal/obs/attrib"
)

// TestNoteGating: notes are kept only while attribution or timelines
// are on, and only for Results that carry a payload.
func TestNoteGating(t *testing.T) {
	tl := TimelineOf([]TimeSlice{slice(100, 10)})
	var nilObs *Observer
	nilObs.Note("m/a", "k", nil, tl) // must not panic
	if nilObs.Noting() {
		t.Fatal("nil observer is noting")
	}
	o := NewObserver(nil)
	o.Note("m/a", "k", nil, tl)
	if o.Noting() || len(o.noted()) != 0 {
		t.Fatal("observer with nothing enabled kept a note")
	}
	o.EnableTimeline()
	o.Note("m/a", "k", nil, nil)
	if !o.Noting() || len(o.noted()) != 0 {
		t.Fatal("payload-less Result noted")
	}
	o.Note("m/a", "k", nil, tl)
	if len(o.noted()) != 1 {
		t.Fatal("timeline Result not noted")
	}
}

// TestNotesCanonicalOrder: whatever order runs are noted in, the
// exports see them deduplicated and sorted by tag, then key — and a
// run noted again keeps its first note.
func TestNotesCanonicalOrder(t *testing.T) {
	snap := func(c float64) *attrib.Snapshot {
		s := &attrib.Snapshot{TotalCycles: c}
		s.Cat[0] = c
		s.Regions = []attrib.RegionCycles{{Slot: 0}}
		s.Regions[0].Cat[0] = c
		return s
	}
	flame := func(order []int) string {
		notes := []struct {
			tag, key string
			cycles   float64
		}{{"m/b", "k1", 1}, {"m/a", "k2", 2}, {"m/a", "k1", 4}, {"m/b", "k1", 8}}
		o := NewObserver(nil)
		o.EnableAttrib(attrib.Spec{})
		for _, i := range order {
			n := notes[i]
			o.Note(n.tag, n.key, snap(n.cycles), nil)
		}
		var got []string
		for _, n := range o.noted() {
			got = append(got, n.tag+" "+n.key)
		}
		if want := "[m/a k1 m/a k2 m/b k1]"; fmt.Sprint(got) != want {
			t.Fatalf("order %v: notes %v, want %s", order, got, want)
		}
		var buf bytes.Buffer
		runs, err := o.WriteFlamegraph(&buf)
		if err != nil || runs != 3 {
			t.Fatalf("order %v: merged %d runs (%v), want 3", order, runs, err)
		}
		return buf.String()
	}
	// Notes 0 and 3 share an ID: whichever is noted first is kept.
	if got := flame([]int{0, 1, 2, 3}); got != flame([]int{2, 1, 0, 3}) {
		t.Fatal("flamegraph depends on noting order")
	}
	if got, want := flame([]int{0, 1, 2, 3}), "interpret;other 7\n"; got != want {
		t.Fatalf("flamegraph = %q, want %q", got, want)
	}
	if got, want := flame([]int{3, 2, 1, 0}), "interpret;other 14\n"; got != want {
		t.Fatalf("re-noted run replaced its first note: flamegraph = %q, want %q", got, want)
	}
}
