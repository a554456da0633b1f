package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// TraceSink renders the lifecycle-event stream as Chrome trace-event
// JSON (the "JSON Array Format" with a traceEvents wrapper), loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The trace clock is Event.T, host time since the observer was
// created, written in the format's microseconds with nanosecond
// decimals. Every event is on that one clock.
//
// Layout: one process (pid 1); each tag gets a lane, named after it, in
// first-seen order. A run (run-start to run-end) and a job (job-start
// to job-done) are "run" and "job" B/E spans; every other kind is a
// thread-scoped instant with its payload fields as args, on the tag's
// first lane. Runs sharing a tag may overlap (the experiment grid runs
// in parallel), so a span opens on the tag's first idle lane, adding a
// lane "tag (2)", "tag (3)", … when none is, and closes on the lane it
// opened on (matched by Event.Run). Every lane therefore holds
// well-formed spans, its events in timestamp order.
//
// Call Flush when done: it appends the lane-name metadata and the
// closing brackets (an unflushed trace is not valid JSON), and the sink
// drops every event emitted after it.
type TraceSink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	buf    []byte
	any    bool // an event has been written (comma management)
	closed bool
	lanes  map[string][]*traceLane // per tag, in creation order
	all    []*traceLane            // every lane, in tid order
	err    error
}

// traceLane is one row of the trace.
type traceLane struct {
	tid  uint64
	name string
	open bool   // a span is open on the lane
	run  uint64 // the open span's Event.Run
}

// NewTraceSink returns a sink writing one Chrome trace to w.
func NewTraceSink(w io.Writer) *TraceSink {
	return &TraceSink{
		w:     bufio.NewWriterSize(w, 1<<16),
		buf:   make([]byte, 0, 256),
		lanes: map[string][]*traceLane{},
	}
}

// laneFor picks e's lane: the one its span opened on for a span end, an
// idle one for a span start, the tag's first lane for an instant, and a
// new lane when none fits. Called with mu held.
func (s *TraceSink) laneFor(e Event) *traceLane {
	ls := s.lanes[e.Tag]
	switch e.Kind {
	case EvRunEnd, EvJobDone:
		for _, l := range ls {
			if l.open && l.run == e.Run {
				return l
			}
		}
	case EvRunStart, EvJobStart:
		for _, l := range ls {
			if !l.open {
				return l
			}
		}
		ls = nil // every lane is busy: add one
	}
	if len(ls) > 0 {
		return ls[0]
	}
	l := &traceLane{tid: uint64(len(s.all)) + 1, name: e.Tag}
	if n := len(s.lanes[e.Tag]); n > 0 {
		l.name += " (" + strconv.Itoa(n+1) + ")"
	}
	s.lanes[e.Tag] = append(s.lanes[e.Tag], l)
	s.all = append(s.all, l)
	return l
}

// head opens one trace event object through the shared fields. Returns
// the scratch buffer positioned after `"ts":<ts>`, ts given in ns and
// written in µs.
func (s *TraceSink) head(name string, ph byte, tid, ts uint64) []byte {
	b := s.buf[:0]
	if !s.any {
		b = append(b, `{"traceEvents":[`...)
		s.any = true
	} else {
		b = append(b, ',')
	}
	b = append(b, "\n"...)
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","pid":1,"tid":`...)
	b = strconv.AppendUint(b, tid, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ts/1000, 10)
	ns := ts % 1000
	return append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
}

// kv is one trace-event args field.
type kv struct {
	k string
	v uint64
}

// argsUint appends `,"args":{...}` from name/value pairs, skipping
// empty names.
func argsUint(b []byte, kvs ...kv) []byte {
	open := false
	for _, f := range kvs {
		if f.k == "" {
			continue
		}
		if !open {
			b = append(b, `,"args":{`...)
			open = true
		} else {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, f.k...)
		b = append(b, `":`...)
		b = strconv.AppendUint(b, f.v, 10)
	}
	if open {
		b = append(b, '}')
	}
	return b
}

// Emit implements Sink.
func (s *TraceSink) Emit(e Event) {
	info := &kindInfo[e.Kind]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return
	}
	l := s.laneFor(e)
	var b []byte
	switch e.Kind {
	case EvRunStart, EvJobStart:
		l.open, l.run = true, e.Run
		b = s.head(spanName(e.Kind), 'B', l.tid, e.T)
	case EvRunEnd, EvJobDone:
		l.open = false
		b = s.head(spanName(e.Kind), 'E', l.tid, e.T)
	default:
		b = s.head(info.name, 'i', l.tid, e.T)
		b = append(b, `,"s":"t"`...)
	}
	b = argsUint(b, kv{info.pc, uint64(e.PC)}, kv{info.a, e.A},
		kv{info.b, e.B}, kv{info.c, e.C})
	b = append(b, '}')
	_, s.err = s.w.Write(b)
	s.buf = b[:0]
}

// spanName names the span a start or end kind delimits.
func spanName(k EventKind) string {
	if k == EvRunStart || k == EvRunEnd {
		return "run"
	}
	return "job"
}

// Flush appends the lane-name metadata and the closing brackets, then
// drains the buffered writer. The output is valid JSON only after
// Flush; the sink drops events emitted afterwards, and a second Flush
// does nothing.
func (s *TraceSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return s.err
	}
	s.closed = true
	for _, l := range s.all {
		b := s.head("thread_name", 'M', l.tid, 0)
		b = append(b, `,"args":{"name":`...)
		b = strconv.AppendQuote(b, l.name)
		b = append(b, `}}`...)
		if _, s.err = s.w.Write(b); s.err != nil {
			return s.err
		}
		s.buf = b[:0]
	}
	if !s.any {
		if _, s.err = s.w.WriteString(`{"traceEvents":[`); s.err != nil {
			return s.err
		}
	}
	if _, s.err = s.w.WriteString("\n]}\n"); s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}
