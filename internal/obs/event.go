package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"codesignvm/internal/obs/attrib"
)

// EventKind enumerates the host-side lifecycle events: run spans,
// run-store outcomes and job-service transitions. OBSERVABILITY.md
// documents each kind's emission site and payload semantics; the
// payload field names in kindInfo are the args keys the trace sink
// writes, so traces are self-describing. No kind carries a simulated
// quantity: what the simulated machine did is the Result-built
// timeline and flamegraph.
type EventKind uint8

// Lifecycle event kinds.
const (
	// EvRunStart opens the host span of one VM.Run call.
	EvRunStart EventKind = iota
	// EvRunEnd closes it.
	EvRunEnd
	// EvStoreHit / EvStoreMiss are persistent run-store lookups in the
	// experiment harnesses (process-level events, tagged with the run).
	EvStoreHit
	EvStoreMiss
	// EvStoreCorrupt is a run-store record failing its checksum or
	// structural decode and being quarantined to a .bad sidecar:
	// tag = record key, a = record size in bytes.
	EvStoreCorrupt
	// EvStoreSteal is a stale run-store lock being stolen from a
	// crashed owner: tag = record key, a = the lock's staleness in ns.
	EvStoreSteal
	// EvStoreGC is one store garbage-collection sweep that removed
	// something: tag = store dir, a = debris files removed (tmp, stale
	// locks, steal markers), b = records evicted by the size cap.
	EvStoreGC
	// EvJobSubmit is one async job accepted by the job service
	// (internal/jobs): tag = "id exp", a = queue depth after enqueue.
	EvJobSubmit
	// EvJobStart opens the host span of a queued job picked up by a
	// worker: tag = "id exp", a = queue depth after dequeue.
	EvJobStart
	// EvJobDone closes it: tag = "id exp", a = terminal state
	// (0 done, 1 failed, 2 cancelled), b = result bytes, c = execution
	// wall time in ns.
	EvJobDone
	// EvJobReject is a submission refused before enqueue: tag = the
	// throttled client key (rate rejects) or the reject reason name,
	// a = reason (0 rate-limited, 1 queue full, 2 draining).
	EvJobReject
	// EvJobCancel is a cancellation request taking effect: tag =
	// "id exp", a = the job's state when cancelled (0 queued,
	// 1 running).
	EvJobCancel
	NumEventKinds
)

// kindInfo names each kind and its payload fields ("" = unused).
var kindInfo = [NumEventKinds]struct {
	name, pc, a, b, c string
}{
	EvRunStart:     {"run-start", "", "", "", ""},
	EvRunEnd:       {"run-end", "", "", "", ""},
	EvStoreHit:     {"store-hit", "", "", "", ""},
	EvStoreMiss:    {"store-miss", "", "", "", ""},
	EvStoreCorrupt: {"store-corrupt", "", "bytes", "", ""},
	EvStoreSteal:   {"store-steal", "", "stale_ns", "", ""},
	EvStoreGC:      {"store-gc", "", "debris", "evicted", ""},
	EvJobSubmit:    {"job-submit", "", "queued", "", ""},
	EvJobStart:     {"job-start", "", "queued", "", ""},
	EvJobDone:      {"job-done", "", "state", "bytes", "wall_ns"},
	EvJobReject:    {"job-reject", "", "reason", "", ""},
	EvJobCancel:    {"job-cancel", "", "state", "", ""},
}

func (k EventKind) String() string {
	if k < NumEventKinds {
		return kindInfo[k].name
	}
	return "event?"
}

// Event is one typed lifecycle record. PC/A/B/C are kind-specific (see
// the kind constants); Tag identifies what emitted it ("model/app" for
// a run, "id exp" for a job). Run is the emitting recorder's number
// (1 for the first NewRun of its observer, 0 for process-level
// events): it pairs a run's start with its end. Events are plain
// values — sinks receive them by value and emission allocates nothing
// beyond what the sink itself does.
//
// T is host time: monotonic nanoseconds since the emitting observer
// was created. Every kind is stamped on this one clock.
type Event struct {
	Seq  uint64
	T    uint64
	Run  uint64
	Kind EventKind
	Tag  string
	PC   uint32
	A    uint64
	B    uint64
	C    uint64
}

// Sink receives emitted events. One Observer's sink is shared by every
// run in the process (the experiment grid runs (app × model) in
// parallel); the observer hands it one event at a time, in timestamp
// order.
type Sink interface {
	Emit(Event)
}

// CollectSink captures events in memory (tests, the example).
type CollectSink struct {
	mu  sync.Mutex
	evs []Event
}

// NewCollectSink returns an empty collecting sink.
func NewCollectSink() *CollectSink { return &CollectSink{} }

// Emit implements Sink.
func (s *CollectSink) Emit(e Event) {
	s.mu.Lock()
	s.evs = append(s.evs, e)
	s.mu.Unlock()
}

// Events returns a copy of everything captured so far.
func (s *CollectSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.evs...)
}

// Observer is the process-wide observability root: the (optional)
// event sink shared by every run, process-level counters for live
// progress reporting, and the set of per-run registries it can
// aggregate. A nil *Observer is valid everywhere and means "disabled";
// all methods are nil-receiver-safe.
type Observer struct {
	sink   Sink
	emitMu sync.Mutex // one event at a time: stamps reach the sink in order
	seq    atomic.Uint64
	start  time.Time // zero of the event clock (Event.T)

	// Proc holds process-level counters (runs started/done, run-store
	// hits/misses). Live-readable: /runs serves them while a sweep
	// runs.
	Proc *Registry

	mu       sync.Mutex
	runs     []*Recorder
	tlOn     bool
	atSpec   attrib.Spec
	attribOn bool
	// notes holds the Results reports consumed (notes.go), kept only
	// while attribution or timelines are on.
	notes map[noteID]note
}

// NewObserver returns an observer emitting to sink (nil: metrics only,
// no event stream).
func NewObserver(sink Sink) *Observer {
	return &Observer{sink: sink, start: time.Now(), Proc: NewRegistry()}
}

// EventsEmitted returns the number of events issued so far.
func (o *Observer) EventsEmitted() uint64 {
	if o == nil {
		return 0
	}
	return o.seq.Load()
}

// Emit issues one process-level event (run store, job service),
// stamped with the observer's host clock. No-op on a nil observer or
// when no sink is configured.
func (o *Observer) Emit(k EventKind, tag string, pc uint32, a, b, c uint64) {
	o.emit(Event{Kind: k, Tag: tag, PC: pc, A: a, B: b, C: c})
}

// emit stamps e with the next sequence number and the host clock and
// hands it to the sink, one event at a time, so the sink receives
// events in timestamp order. The clock is read only when a sink exists.
func (o *Observer) emit(e Event) {
	if o == nil || o.sink == nil {
		return
	}
	o.emitMu.Lock()
	e.Seq = o.seq.Add(1)
	e.T = uint64(time.Since(o.start))
	o.sink.Emit(e)
	o.emitMu.Unlock()
}

// EnableTimeline turns on interval sampling: every Recorder minted by
// a subsequent NewRun carries a Timeline (TimelineInterval,
// TimelineSlices), and any VM the recorder is attached to samples into
// it and leaves the slices on its Result. No-op on a nil observer.
// Call before the sweep starts; already-minted recorders are unchanged.
func (o *Observer) EnableTimeline() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.tlOn = true
	o.mu.Unlock()
}

// TimelineEnabled reports whether EnableTimeline has been called.
func (o *Observer) TimelineEnabled() bool {
	if o == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tlOn
}

// EnableAttrib turns on cycle attribution: every Recorder minted by a
// subsequent NewRun carries a fresh attrib.Profile with this spec, and
// any VM the recorder is attached to charges its simulated cycles into
// it. No-op on a nil observer. Call before the sweep starts;
// already-minted recorders are unchanged.
func (o *Observer) EnableAttrib(spec attrib.Spec) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.atSpec = spec
	o.attribOn = true
	o.mu.Unlock()
}

// AttribEnabled reports whether EnableAttrib has been called.
func (o *Observer) AttribEnabled() bool {
	if o == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attribOn
}

// AttribKey returns the canonical cache-key string of the enabled
// attribution spec, or "" when attribution is off. Run caches fold it
// into their keys: an attributing run books the same simulated cycles
// but carries a different result payload, so it must not share cache
// entries with a non-attributing one.
func (o *Observer) AttribKey() string {
	if o == nil {
		return ""
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.attribOn {
		return ""
	}
	return o.atSpec.Key()
}

// AttribSpec returns the enabled attribution spec (zero Spec when
// attribution is off; check AttribEnabled to distinguish).
func (o *Observer) AttribSpec() attrib.Spec {
	if o == nil {
		return attrib.Spec{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.attribOn {
		return attrib.Spec{}
	}
	return o.atSpec
}

// NewRun mints the per-run Recorder for one simulation: a fresh
// Registry (whose end-of-run Snapshot rides on the run's Result) plus
// the shared sink and sequence — and, when EnableTimeline has been
// called, a fresh Timeline. Returns nil on a nil observer.
func (o *Observer) NewRun(tag string) *Recorder {
	if o == nil {
		return nil
	}
	r := &Recorder{Reg: NewRegistry(), obs: o, tag: tag}
	o.mu.Lock()
	r.id = uint64(len(o.runs)) + 1
	if o.tlOn {
		r.timeline = newTimeline(TimelineInterval, TimelineSlices)
	}
	if o.attribOn {
		r.attrib = attrib.New(o.atSpec)
	}
	o.runs = append(o.runs, r)
	o.mu.Unlock()
	return r
}

// Runs returns a copy of every run recorder minted so far, in minting
// order (the /runs endpoint iterates it).
func (o *Observer) Runs() []*Recorder {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Recorder(nil), o.runs...)
}

// Aggregate merges the snapshots of every run recorder minted so far
// (counters and histogram buckets sum; gauges keep their maximum).
func (o *Observer) Aggregate() Snapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	runs := append([]*Recorder(nil), o.runs...)
	o.mu.Unlock()
	snaps := make([]Snapshot, len(runs))
	for i, r := range runs {
		snaps[i] = r.Reg.Snapshot()
	}
	return Merge(snaps...)
}

// FullSnapshot is Aggregate plus the process-level registry
// (runs.started, store.* health counters, …) in one merged view — what
// the /metrics endpoint serves and -metrics prints.
func (o *Observer) FullSnapshot() Snapshot {
	if o == nil {
		return nil
	}
	return Merge(o.Proc.Snapshot(), o.Aggregate())
}

// RunCount returns how many run recorders have been minted.
func (o *Observer) RunCount() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.runs)
}

// Recorder is one run's observability handle: a private metrics
// registry plus event emission through the parent observer's sink. The
// VM holds a possibly-nil *Recorder; every hot-path site guards with
// one nil check, which is the entire cost of disabled observability.
type Recorder struct {
	// Reg is the run's metric registry; its Snapshot is attached to
	// the run's Result (and persisted in the run store).
	Reg *Registry

	obs      *Observer
	tag      string
	id       uint64          // 1-based minting order (Event.Run)
	timeline *Timeline       // nil unless the observer enabled sampling
	attrib   *attrib.Profile // nil unless the observer enabled attribution

	// snapMu guards snap: the run's finished attribution snapshot, set
	// once by the VM at run end and read by live reporting (/runs).
	snapMu sync.Mutex
	snap   *attrib.Snapshot
}

// NewRecorder returns a standalone recorder (own registry, events to
// sink via a private observer; sink may be nil for metrics-only use).
func NewRecorder(tag string, sink Sink) *Recorder {
	return NewObserver(sink).NewRun(tag)
}

// Tag returns the run tag.
func (r *Recorder) Tag() string {
	if r == nil {
		return ""
	}
	return r.tag
}

// Timeline returns the run's interval-sampling timeline, or nil when
// the observer did not enable sampling (or on a nil recorder).
func (r *Recorder) Timeline() *Timeline {
	if r == nil {
		return nil
	}
	return r.timeline
}

// Attrib returns the run's cycle-attribution profile, or nil when the
// observer did not enable attribution (or on a nil recorder).
func (r *Recorder) Attrib() *attrib.Profile {
	if r == nil {
		return nil
	}
	return r.attrib
}

// SetAttrib publishes the run's finished attribution snapshot (called
// by the VM at run end; safe against concurrent AttribSnapshot reads).
func (r *Recorder) SetAttrib(s *attrib.Snapshot) {
	if r == nil {
		return
	}
	r.snapMu.Lock()
	r.snap = s
	r.snapMu.Unlock()
}

// AttribSnapshot returns the published snapshot, or nil while the run
// is still in flight (or attribution is off).
func (r *Recorder) AttribSnapshot() *attrib.Snapshot {
	if r == nil {
		return nil
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.snap
}

// Emit issues one lifecycle event for this run, stamped with the
// observer's host clock. No-op on a nil recorder or when the observer
// has no sink.
func (r *Recorder) Emit(k EventKind, pc uint32, a, b, c uint64) {
	if r == nil {
		return
	}
	r.obs.emit(Event{Run: r.id, Kind: k, Tag: r.tag, PC: pc, A: a, B: b, C: c})
}
