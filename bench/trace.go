package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The span recorder of the traced run. Spans are recorded from this
// package only, around calls into each layer's public functions; they
// stay in memory and are written as Chrome trace events when the run
// ends. A nil *tracer records nothing, which is how the untraced run —
// the one every end-to-end metric comes from — executes the same op
// code. The benchmark has one client, so the recorder needs no lock.

// span is one recorded interval. Parent is the span that caused it
// (-1 for an op's root span) and Op is shared by all spans of one op.
type span struct {
	Name   string // layer.function, e.g. "vmm.run"
	Label  string // what distinguishes spans of one name: model, mode, report
	Sec    string // the workload pass the span belongs to
	ID     int32
	Parent int32
	Op     int32
	Start  int64  // ns since the tracer's epoch
	End    int64  // 0 until ended
	N      uint64 // work done inside the span (instructions), if counted
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

type tracer struct {
	epoch   time.Time
	sec     string
	spans   []span
	ops     int32
	samples map[string][]float64 // counts taken at the same boundaries
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}}
}

// section names the workload pass that subsequent spans belong to.
func (t *tracer) section(name string) {
	if t == nil {
		return
	}
	t.sec = name
}

func (t *tracer) begin(name, label string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Label: label, Sec: t.sec,
		ID: id, Parent: parent, Op: op, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32, n uint64) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.spans[id].N = n
}

// sample records one value of a count or duration measured at a layer
// boundary, keyed by "<section>/<name>".
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	key := t.sec + "/" + name
	t.samples[key] = append(t.samples[key], v)
}

func (t *tracer) newOp() int32 {
	t.ops++
	return t.ops
}

// opCtx is what an op sees of the tracer: spans it opens are children
// of the op's root span. The zero value (nil tracer) records nothing.
type opCtx struct {
	tr   *tracer
	root int32
	op   int32
}

func (c *opCtx) tracing() bool { return c.tr != nil }

func (c *opCtx) begin(name, label string) int32 {
	return c.tr.begin(name, label, c.root, c.op)
}

func (c *opCtx) end(id int32)            { c.tr.end(id, 0) }
func (c *opCtx) endN(id int32, n uint64) { c.tr.end(id, n) }

func (c *opCtx) sample(name string, v float64) { c.tr.sample(name, v) }

// find returns the finished spans with the given name; empty sec or
// label match any.
func (t *tracer) find(sec, name, label string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 && (sec == "" || s.Sec == sec) && (label == "" || s.Label == label) {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i := range spans {
		out[i] = spans[i].dur()
	}
	return out
}

// nsPerUnit is total span time over total counted work.
func nsPerUnit(spans []span) float64 {
	var ns float64
	var n uint64
	for i := range spans {
		ns += spans[i].dur()
		n += spans[i].N
	}
	if n == 0 {
		return 0
	}
	return ns / float64(n)
}

// selfTimes returns each span's duration minus the part of it covered
// by its direct children. Children of one span never overlap: the
// benchmark has one client.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// events renders the finished spans as Chrome "complete" events.
func (t *tracer) events(pid int) []traceEvent {
	self := t.selfTimes()
	out := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out = append(out, traceEvent{
			Name: s.Name, Cat: s.Sec, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: s.dur() / 1e3,
			PID: pid, TID: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op,
				"label": s.Label, "n": s.N, "self_us": self[i] / 1e3},
		})
	}
	return out
}

func writeTrace(path string, events []traceEvent) error {
	data, err := json.Marshal(traceFile{TraceEvents: events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

func readTrace(path string) ([]traceEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.TraceEvents, nil
}
