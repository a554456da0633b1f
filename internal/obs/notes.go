package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"codesignvm/internal/obs/attrib"
)

// Observation from Results. The -flamegraph and -timeline exports are
// functions of the Results the reports consumed, not of the
// simulations this process happened to run: the experiment layer notes
// every Result it hands a report — cache hit, store hit or fresh
// simulation — under its run key, and the writers below render the
// noted runs deduplicated, in canonical order (tag, then key). A warm
// pass served entirely from the run store therefore writes the same
// bytes as the cold pass that simulated its runs, and the order does
// not depend on which pool worker finished first.

// noteID identifies one noted run.
type noteID struct{ tag, key string }

// note is what the exports read of one noted Result.
type note struct {
	noteID
	attrib   *attrib.Snapshot
	timeline *Timeline
}

// Noting reports whether Note keeps anything: attribution or timelines
// are on. Callers check it before deriving a run key, so observers that
// export neither pay nothing per consumed Result.
func (o *Observer) Noting() bool {
	if o == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attribOn || o.tlOn
}

// Note records one Result a report consumed: the run's tag, its run key
// (the store key in the experiment layer; elsewhere any string that
// tells the caller's runs apart), its attribution snapshot and its
// timeline. Both are kept by reference and read when the exports are
// written, after the runs end. A run noted again keeps its first note:
// one run key names one deterministic simulation. No-op unless Noting,
// or when the Result carries neither payload.
func (o *Observer) Note(tag, key string, a *attrib.Snapshot, tl *Timeline) {
	if o == nil || (a == nil && tl == nil) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.attribOn && !o.tlOn {
		return
	}
	id := noteID{tag, key}
	if _, ok := o.notes[id]; ok {
		return
	}
	if o.notes == nil {
		o.notes = map[noteID]note{}
	}
	o.notes[id] = note{id, a, tl}
}

// noted returns the notes in canonical order: tag, then key.
func (o *Observer) noted() []note {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	out := make([]note, 0, len(o.notes))
	for _, n := range o.notes {
		out = append(out, n)
	}
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].tag != out[j].tag {
			return out[i].tag < out[j].tag
		}
		return out[i].key < out[j].key
	})
	return out
}

// WriteTimelines renders the timelines of the noted runs as one CSV
// table with a leading tag column (OBSERVABILITY.md documents the
// columns) and returns how many runs it wrote.
func (o *Observer) WriteTimelines(w io.Writer) (runs int, err error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, timelineCSVHeader); err != nil {
		return 0, err
	}
	for _, n := range o.noted() {
		if n.timeline == nil {
			continue
		}
		if err := writeTimelineCSV(bw, n.tag, n.timeline.Slices()); err != nil {
			return runs, err
		}
		runs++
	}
	return runs, bw.Flush()
}

// WriteFlamegraph merges the attribution snapshots of the noted runs in
// canonical order (so the float sums are reproducible), writes the
// merged profile as collapsed stacks (category;region count) and
// returns how many runs it merged.
func (o *Observer) WriteFlamegraph(w io.Writer) (runs int, err error) {
	var snaps []*attrib.Snapshot
	for _, n := range o.noted() {
		if n.attrib != nil {
			snaps = append(snaps, n.attrib)
		}
	}
	return len(snaps), attrib.Merge(snaps...).WriteCollapsed(w)
}
