package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceEvent is the decoded shape of one Chrome trace event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Ts   float64        `json:"ts"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// decodeTrace parses a flushed sink's output and fails the test if it
// is not exactly the Chrome JSON-object format.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

// laneNames maps each lane to its thread_name metadata.
func laneNames(evs []traceEvent) map[uint64]string {
	names := map[uint64]string{}
	for _, e := range evs {
		if e.Ph == "M" {
			names[e.Tid] = e.Args["name"].(string)
		}
	}
	return names
}

// checkLanes fails the test unless every lane holds well-formed spans —
// each B closed by an E before the next B, none left open — with
// timestamps non-decreasing in emission order, and returns the number
// of spans of each name.
func checkLanes(t *testing.T, evs []traceEvent) map[string]int {
	t.Helper()
	open := map[uint64]string{}
	last := map[uint64]float64{}
	spans := map[string]int{}
	for _, e := range evs {
		if e.Ph == "M" {
			continue
		}
		if e.Ts < last[e.Tid] {
			t.Fatalf("lane %d: %s at ts %v after ts %v", e.Tid, e.Name, e.Ts, last[e.Tid])
		}
		last[e.Tid] = e.Ts
		switch e.Ph {
		case "B":
			if name, ok := open[e.Tid]; ok {
				t.Fatalf("lane %d: %s span opens inside an open %s span", e.Tid, e.Name, name)
			}
			open[e.Tid] = e.Name
		case "E":
			if open[e.Tid] != e.Name {
				t.Fatalf("lane %d: %s span ends, but %q is open", e.Tid, e.Name, open[e.Tid])
			}
			delete(open, e.Tid)
			spans[e.Name]++
		}
	}
	if len(open) != 0 {
		t.Fatalf("spans left open: %v", open)
	}
	return spans
}

func TestTraceSinkEmptyFlushIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if evs := decodeTrace(t, &buf); len(evs) != 0 {
		t.Fatalf("empty trace has %d events", len(evs))
	}
}

// TestTraceSinkShapes: runs and jobs are B/E spans, everything else an
// instant, all on the host clock; two runs of one tag that overlap get
// a lane each, and a later run reuses the first idle lane.
func TestTraceSinkShapes(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	o := NewObserver(s)
	a, b, c := o.NewRun("VM.soft/Word"), o.NewRun("VM.soft/Word"), o.NewRun("VM.soft/Word")
	o.Emit(EvStoreMiss, "VM.soft/Word", 0, 0, 0, 0)
	a.Emit(EvRunStart, 0, 0, 0, 0)
	b.Emit(EvRunStart, 0, 0, 0, 0)
	a.Emit(EvRunEnd, 0, 0, 0, 0)
	c.Emit(EvRunStart, 0, 0, 0, 0)
	b.Emit(EvRunEnd, 0, 0, 0, 0)
	c.Emit(EvRunEnd, 0, 0, 0, 0)
	o.Emit(EvJobStart, "j1 fig2", 0, 3, 0, 0)
	o.Emit(EvJobDone, "j1 fig2", 0, 0, 120, 5000)
	elapsed := time.Since(o.start)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, &buf)
	if spans := checkLanes(t, evs); spans["run"] != 3 || spans["job"] != 1 {
		t.Fatalf("spans %v, want 3 run and 1 job", spans)
	}
	names := laneNames(evs)
	var runLanes []uint64 // lane of each run-start, in emission order
	for _, e := range evs {
		if e.Ph != "M" && (e.Ts <= 0 || e.Ts > float64(elapsed.Nanoseconds())/1e3) {
			t.Fatalf("%s at ts %v µs: not host time since the observer was created (%v)", e.Name, e.Ts, elapsed)
		}
		switch {
		case e.Ph == "B" && e.Name == "run":
			runLanes = append(runLanes, e.Tid)
		case e.Ph == "i" && (e.Name != "store-miss" || e.S != "t" || names[e.Tid] != "VM.soft/Word"):
			t.Fatalf("instant wrong: %+v on %q", e, names[e.Tid])
		case e.Ph == "E" && e.Name == "job" && (e.Args["state"] != 0.0 || e.Args["bytes"] != 120.0 || e.Args["wall_ns"] != 5000.0):
			t.Fatalf("job-done args wrong: %v", e.Args)
		}
	}
	if len(runLanes) != 3 || runLanes[0] == runLanes[1] || runLanes[2] != runLanes[0] {
		t.Fatalf("run lanes %v: want overlapping runs apart and the third on the first idle lane", runLanes)
	}
	if names[runLanes[0]] != "VM.soft/Word" || names[runLanes[1]] != "VM.soft/Word (2)" {
		t.Fatalf("lane names wrong: %v", names)
	}
}

// TestTraceSinkClosedIsInert: emitting after Flush must not corrupt the
// already-valid output, and a second Flush is a no-op.
func TestTraceSinkClosedIsInert(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	o := NewObserver(s)
	r := o.NewRun("m/a")
	r.Emit(EvRunStart, 0, 0, 0, 0)
	r.Emit(EvRunEnd, 0, 0, 0, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := buf.String()
	r.Emit(EvRunStart, 0, 0, 0, 0)
	o.Emit(EvStoreHit, "m/a", 0, 0, 0, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != before {
		t.Fatal("post-Flush emission changed the output")
	}
	decodeTrace(t, &buf)
}

// TestTraceSinkConcurrentTags: runs emitting concurrently, several of
// them under one tag, each keep one well-formed span on a lane named
// after their tag, whatever order their events reach the sink in.
func TestTraceSinkConcurrentTags(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	o := NewObserver(s)
	tags := []string{"m/a", "m/a", "m/a", "m/b", "m/b", "m/c"}
	const rounds = 50
	var wg sync.WaitGroup
	for _, tag := range tags {
		r := o.NewRun(tag)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Emit(EvRunStart, 0, 0, 0, 0)
				o.Emit(EvStoreHit, r.Tag(), 0, 0, 0, 0)
				r.Emit(EvRunEnd, 0, 0, 0, 0)
			}
		}()
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, &buf)
	if spans := checkLanes(t, evs); spans["run"] != len(tags)*rounds {
		t.Fatalf("%d run spans, want %d", spans["run"], len(tags)*rounds)
	}
	for _, n := range laneNames(evs) {
		if tag, _, _ := strings.Cut(n, " ("); tag != "m/a" && tag != "m/b" && tag != "m/c" {
			t.Fatalf("lane %q is named after no tag", n)
		}
	}
}

// TestTraceSinkEventPayloads sends every event kind through the sink
// and finds it in the trace under its name and phase, on its tag's
// lane, with every payload field the kind names as an arg and no
// other — one golden row per kind. A new kind needs a row here;
// renaming a kind or an arg is a consumer-visible schema change
// (OBSERVABILITY.md).
func TestTraceSinkEventPayloads(t *testing.T) {
	golden := []struct {
		kind     EventKind
		name, ph string
		args     map[string]float64
	}{
		{EvRunStart, "run", "B", nil},
		{EvRunEnd, "run", "E", nil},
		{EvStoreHit, "store-hit", "i", nil},
		{EvStoreMiss, "store-miss", "i", nil},
		{EvStoreCorrupt, "store-corrupt", "i", map[string]float64{"bytes": 1}},
		{EvStoreSteal, "store-steal", "i", map[string]float64{"stale_ns": 1}},
		{EvStoreGC, "store-gc", "i", map[string]float64{"debris": 1, "evicted": 2}},
		{EvJobSubmit, "job-submit", "i", map[string]float64{"queued": 1}},
		{EvJobStart, "job", "B", map[string]float64{"queued": 1}},
		{EvJobDone, "job", "E", map[string]float64{"state": 1, "bytes": 2, "wall_ns": 3}},
		{EvJobReject, "job-reject", "i", map[string]float64{"reason": 1}},
		{EvJobCancel, "job-cancel", "i", map[string]float64{"state": 1}},
	}
	if int(NumEventKinds) != len(golden) {
		t.Fatalf("event kinds = %d, golden rows = %d: a new kind needs a row here", NumEventKinds, len(golden))
	}
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	o := NewObserver(s)
	// One tag per kind, so each event has a lane of its own.
	for _, g := range golden {
		o.Emit(g.kind, g.kind.String(), 0x401000, 1, 2, 3)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, &buf)
	lane := laneNames(evs)
	for _, g := range golden {
		var got *traceEvent
		for j := range evs {
			if e := &evs[j]; e.Ph != "M" && lane[e.Tid] == g.kind.String() {
				got = e
				break
			}
		}
		if got == nil {
			t.Errorf("%v: no event on its tag's lane", g.kind)
			continue
		}
		if got.Name != g.name || got.Ph != g.ph {
			t.Errorf("%v: got %s/%s, want %s/%s", g.kind, got.Name, got.Ph, g.name, g.ph)
		}
		if len(got.Args) != len(g.args) {
			t.Errorf("%v: args %v, want %v", g.kind, got.Args, g.args)
		}
		for k, want := range g.args {
			if got.Args[k] != want {
				t.Errorf("%v: arg %q = %v, want %v", g.kind, k, got.Args[k], want)
			}
		}
	}
}
