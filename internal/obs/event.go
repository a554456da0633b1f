package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"codesignvm/internal/obs/attrib"
)

// EventKind enumerates the VM lifecycle events. OBSERVABILITY.md
// documents each kind's emission site and payload semantics; the
// payload field names below (pcName/aName/bName/cName) are what the
// JSONL sink writes, so traces are self-describing.
type EventKind uint8

// Lifecycle event kinds.
const (
	// EvRunStart opens one VM.Run call: a = instruction budget.
	EvRunStart EventKind = iota
	// EvRunEnd closes it: a = retired instructions, b = simulated
	// cycles (rounded).
	EvRunEnd
	// EvBBTTranslate is one basic-block translation into the BBT code
	// cache: pc = entry, a = x86 instructions, b = micro-ops,
	// c = encoded bytes.
	EvBBTTranslate
	// EvSBTPromote is one hotspot promotion — superblock formation at
	// the Eq. 2 threshold: pc = entry, a = x86 instructions,
	// b = micro-ops, c = encoded bytes.
	EvSBTPromote
	// EvChain is one translation-exit chain creation (dispatch bypass):
	// pc = dispatched target, a = source entry PC, b = target entry PC.
	EvChain
	// EvUnchain is a translation being superseded (a BBT block
	// invalidated by the superblock covering it): pc = entry PC,
	// a = cache epoch.
	EvUnchain
	// EvCacheFlush is a code-cache flush: a = cache id (0 BBT, 1 SBT),
	// b = the new epoch, c = cumulative flushes of that cache.
	EvCacheFlush
	// EvShadowEvict is a clock eviction from the bounded shadow table:
	// pc = evicted entry, a = resident blocks after eviction.
	EvShadowEvict
	// EvJTLBEpoch is a periodic jump-TLB summary, emitted every
	// jtlbEpochInterval slow-path dispatch lookups: a = cumulative
	// hits, b = cumulative misses.
	EvJTLBEpoch
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
	// EvRestore closes one VM.Restore call (warm-start snapshot
	// attachment): a = restorable snapshot entries, b = translations
	// eagerly preloaded (0 for the fully lazy mode), c = x86
	// instructions covered by the preload.
	EvRestore
	// EvRestoreFault is one lazy warm-start fault-in — a dispatch miss
	// materializing a snapshot translation instead of translating cold:
	// pc = entry, a = x86 instructions, b = encoded bytes.
	EvRestoreFault
	// EvJobSubmit is one async job accepted by the job service
	// (internal/jobs): tag = "id exp", a = queue depth after enqueue.
	EvJobSubmit
	// EvJobStart is a queued job picked up by a worker: tag = "id exp",
	// a = queue depth after dequeue.
	EvJobStart
	// EvJobDone closes one job: tag = "id exp", a = terminal state
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
	EvRunStart:     {"run-start", "", "budget", "", ""},
	EvRunEnd:       {"run-end", "", "instrs", "cycles", ""},
	EvBBTTranslate: {"bbt-translate", "pc", "x86", "uops", "bytes"},
	EvSBTPromote:   {"sbt-promote", "pc", "x86", "uops", "bytes"},
	EvChain:        {"chain", "pc", "from", "to", ""},
	EvUnchain:      {"unchain", "pc", "epoch", "", ""},
	EvCacheFlush:   {"cache-flush", "", "cache", "epoch", "flushes"},
	EvShadowEvict:  {"shadow-evict", "pc", "resident", "", ""},
	EvJTLBEpoch:    {"jtlb-epoch", "", "hits", "misses", ""},
	EvStoreHit:     {"store-hit", "", "", "", ""},
	EvStoreMiss:    {"store-miss", "", "", "", ""},
	EvStoreCorrupt: {"store-corrupt", "", "bytes", "", ""},
	EvStoreSteal:   {"store-steal", "", "stale_ns", "", ""},
	EvStoreGC:      {"store-gc", "", "debris", "evicted", ""},
	EvRestore:      {"restore", "", "entries", "preloaded", "x86"},
	EvRestoreFault: {"restore-fault", "pc", "x86", "bytes", ""},
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
// the kind constants); Tag identifies the emitting run ("model/app").
// Events are plain values — sinks receive them by value and emission
// allocates nothing beyond what the sink itself does.
//
// T is the emitting run's own clock: its retired-x86-instruction count
// at emission. Instructions, not cycles, because every VM emission site
// is functional (dispatch, translators, flush and eviction handlers),
// and the instruction count is what a functional step advances.
// Process-level events (store hits/misses) carry T = 0.
type Event struct {
	Seq  uint64
	T    uint64
	Kind EventKind
	Tag  string
	PC   uint32
	A    uint64
	B    uint64
	C    uint64
}

// Sink receives emitted events. Implementations must be safe for
// concurrent Emit calls: one Observer's sink is shared by every run in
// the process (the experiment grid runs (app × model) in parallel).
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

// JSONLSink renders events as self-describing JSON Lines:
//
//	{"seq":17,"ev":"bbt-translate","tag":"VM.soft/Word","pc":4198409,"x86":9,"uops":17,"bytes":58}
//
// Field names come from the event kind, so a trace is greppable by
// meaning (jq '.ev=="cache-flush"'). Writes share one buffered writer
// behind a mutex; the line is assembled in a reused scratch buffer, so
// steady-state emission does not allocate.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
}

// NewJSONLSink returns a sink writing JSON Lines to w. Call Flush when
// done (the sink buffers).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	info := &kindInfo[e.Kind]
	s.mu.Lock()
	b := s.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendUint(b, e.T, 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, info.name)
	if e.Tag != "" {
		b = append(b, `,"tag":`...)
		b = strconv.AppendQuote(b, e.Tag)
	}
	if info.pc != "" {
		b = append(b, `,"`...)
		b = append(b, info.pc...)
		b = append(b, `":`...)
		b = strconv.AppendUint(b, uint64(e.PC), 10)
	}
	for _, f := range [3]struct {
		name string
		v    uint64
	}{{info.a, e.A}, {info.b, e.B}, {info.c, e.C}} {
		if f.name == "" {
			continue
		}
		b = append(b, `,"`...)
		b = append(b, f.name...)
		b = append(b, `":`...)
		b = strconv.AppendUint(b, f.v, 10)
	}
	b = append(b, "}\n"...)
	s.w.Write(b)
	s.buf = b[:0]
	s.mu.Unlock()
}

// Flush drains the buffered writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Observer is the process-wide observability root: the (optional)
// event sink shared by every run, process-level counters for live
// progress reporting, and the set of per-run registries it can
// aggregate. A nil *Observer is valid everywhere and means "disabled";
// all methods are nil-receiver-safe.
type Observer struct {
	sink Sink
	seq  atomic.Uint64

	// Proc holds process-level counters (runs started/done, run-store
	// hits/misses). Live-readable: the cmd/vmsim progress line prints
	// them while a sweep runs.
	Proc *Registry

	mu       sync.Mutex
	runs     []*Recorder
	tlSpec   TimelineSpec
	tlOn     bool
	atSpec   attrib.Spec
	attribOn bool
}

// NewObserver returns an observer emitting to sink (nil: metrics only,
// no event stream).
func NewObserver(sink Sink) *Observer {
	return &Observer{sink: sink, Proc: NewRegistry()}
}

// Enabled reports whether the observer exists (convenience for
// `if o.Enabled()` call sites holding a possibly-nil pointer).
func (o *Observer) Enabled() bool { return o != nil }

// EventsEmitted returns the number of events issued so far.
func (o *Observer) EventsEmitted() uint64 {
	if o == nil {
		return 0
	}
	return o.seq.Load()
}

// Emit issues one process-level event (run-store hits and misses).
// No-op on a nil observer or when no sink is configured.
func (o *Observer) Emit(k EventKind, tag string, pc uint32, a, b, c uint64) {
	if o == nil || o.sink == nil {
		return
	}
	o.sink.Emit(Event{Seq: o.seq.Add(1), Kind: k, Tag: tag, PC: pc, A: a, B: b, C: c})
}

// EnableTimeline turns on interval sampling: every Recorder minted by
// a subsequent NewRun carries a Timeline with this spec, and any VM the
// recorder is attached to samples into it. No-op on a nil observer.
// Call before the sweep starts; already-minted recorders are unchanged.
func (o *Observer) EnableTimeline(spec TimelineSpec) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.tlSpec = spec.withDefaults()
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
	if o.tlOn {
		r.timeline = NewTimeline(o.tlSpec)
	}
	if o.attribOn {
		r.attrib = attrib.New(o.atSpec)
	}
	o.runs = append(o.runs, r)
	o.mu.Unlock()
	return r
}

// Runs returns a copy of every run recorder minted so far, in minting
// order (the timeline exporters and the /runs endpoint iterate it).
func (o *Observer) Runs() []*Recorder {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Recorder(nil), o.runs...)
}

// LiveIntervalIPC returns the most recently completed interval's IPC
// across all sampling runs — the newest run with two timeline slices
// wins. Used by live reporting (progress heartbeat, /runs); returns
// false when no run has sampled two slices yet.
func (o *Observer) LiveIntervalIPC() (float64, bool) {
	if o == nil {
		return 0, false
	}
	o.mu.Lock()
	runs := append([]*Recorder(nil), o.runs...)
	o.mu.Unlock()
	for i := len(runs) - 1; i >= 0; i-- {
		if tl := runs[i].Timeline(); tl != nil {
			if ipc, ok := tl.LastIntervalIPC(); ok {
				return ipc, true
			}
		}
	}
	return 0, false
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
// the /metrics endpoint serves and -metrics table|json prints.
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

// Emit issues one lifecycle event for this run with no timestamp.
// No-op on a nil recorder or when the observer has no sink.
func (r *Recorder) Emit(k EventKind, pc uint32, a, b, c uint64) {
	r.EmitAt(k, pc, 0, a, b, c)
}

// EmitAt issues one lifecycle event stamped with the run's own clock t
// (retired x86 instructions at emission; see Event.T). No-op on a nil
// recorder or when the observer has no sink.
func (r *Recorder) EmitAt(k EventKind, pc uint32, t, a, b, c uint64) {
	if r == nil {
		return
	}
	o := r.obs
	if o == nil || o.sink == nil {
		return
	}
	o.sink.Emit(Event{Seq: o.seq.Add(1), T: t, Kind: k, Tag: r.tag, PC: pc, A: a, B: b, C: c})
}
