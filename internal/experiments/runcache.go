package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"codesignvm/internal/codecache"
	"codesignvm/internal/machine"
	"codesignvm/internal/obs"
	"codesignvm/internal/store"
	"codesignvm/internal/store/faultfs"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// runKey identifies one deterministic simulation: the full machine
// configuration plus the workload identity and instruction budget.
// vmm.Config is a flat value type, so the key is comparable.
type runKey struct {
	cfg      vmm.Config
	app      string
	scale    int
	instrs   uint64
	attrib   string // attribution-spec key; "" when attribution is off
	timeline bool   // the run samples a timeline
}

// attribKey returns the canonical attribution-spec string of the
// options' observer ("" when attribution is off).
func (o Options) attribKey() string { return o.Obs.AttribKey() }

// key returns the run-cache key of one simulation under these options.
// The observer's attribution spec and timeline bit join it: neither
// changes simulated timing, but an observing result carries extra
// payload a plain request must not be served (and vice versa).
func (o Options) key(cfg vmm.Config, app string, scale int, instrs uint64) runKey {
	return runKey{cfg, app, scale, instrs, o.attribKey(), o.Obs.TimelineEnabled()}
}

// memo is a process-wide once-guarded memoization table: concurrent
// requests for one key run its fill exactly once and share the value.
// Only values are kept. A fill that fails hands its error to the
// callers already waiting on it and drops the slot, so the next request
// fills afresh — a store-lock wait cancelled through one request's
// context must not fail every later request for the same key. A waiter
// handed such a context error while its own context (ctx) is live
// fills again instead: cancelling one job must not fail a concurrent
// job that shares a run with it. A fill that panics counts as failed
// the same way (the job service recovers the panic and goes on
// serving), so its slot never serves a zero value.
type memo[K comparable, V any] struct {
	slots sync.Map // K -> *memoSlot[V]
}

var errFillPanicked = errors.New("memo: fill panicked")

type memoSlot[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (m *memo[K, V]) get(ctx context.Context, key K, fill func() (V, error)) (V, error) {
	for {
		e, ok := m.slots.Load(key) // a hit allocates nothing
		if !ok {
			e, _ = m.slots.LoadOrStore(key, new(memoSlot[V]))
		}
		slot := e.(*memoSlot[V])
		filled := false
		slot.once.Do(func() {
			filled = true
			slot.err = errFillPanicked // overwritten unless fill panics
			defer func() {
				if slot.err != nil {
					m.slots.CompareAndDelete(key, slot)
				}
			}()
			slot.val, slot.err = fill()
		})
		if !filled && ctx.Err() == nil &&
			(errors.Is(slot.err, context.Canceled) || errors.Is(slot.err, context.DeadlineExceeded)) {
			continue // another request's cancellation; its slot is gone
		}
		return slot.val, slot.err
	}
}

// reset empties the table, so the next request for any key fills again.
func (m *memo[K, V]) reset() {
	m.slots.Range(func(k, _ any) bool {
		m.slots.Delete(k)
		return true
	})
}

// runCache memoizes simulation results process-wide. Simulations are
// deterministic per key (programs are deterministic per (name, scale)
// and the simulator has no hidden state), so harnesses can share runs:
// Fig. 11 repeats Fig. 8's grid exactly, Fig. 9 shares its long-trace
// runs, and the ablation baseline is Fig. 10's VM.soft run. In a sweep
// that removes whole figures from the critical path. Options.Store
// extends the cache across processes via the disk store (fetch).
var runCache memo[runKey, *vmm.Result]

// resetRunCacheForTest clears the in-process memoization so tests can
// force disk-store reads or fresh simulations.
func resetRunCacheForTest() { runCache.reset() }

// runApp simulates cfg over a named application, memoized unless
// opt.FreshRuns is set. Callers receive a private shallow copy with
// its own Samples slice, so mutating a report's result cannot corrupt
// the cache.
func (o Options) runApp(cfg vmm.Config, app string, instrs uint64) (*vmm.Result, error) {
	return o.runAppWarm(cfg, app, instrs, nil)
}

// snapFunc lazily produces the warm-start snapshot a run restores
// from. It is called only when a simulation actually happens — run
// results served from the in-process cache or the disk store never
// build (or even load) a snapshot. nil means cold start.
type snapFunc func() (*codecache.Snapshot, error)

// runAppWarm is runApp with an optional warm-start snapshot source.
// Warm modes are distinct simulated configurations (cfg.WarmStart),
// so they occupy distinct cache slots and store keys automatically.
func (o Options) runAppWarm(cfg vmm.Config, app string, instrs uint64, snapFn snapFunc) (*vmm.Result, error) {
	scale := o.Scale
	if scale < 1 {
		scale = 1 // match workload.App's clamp so keys do not split
	}
	k := o.key(cfg, app, scale, instrs)
	if o.FreshRuns {
		res, err := fetch(o, o.runArtifact(k, snapFn))
		if err == nil {
			o.note(k, res)
		}
		return res, err
	}
	res, err := runCache.get(o.ctx(), k, func() (*vmm.Result, error) {
		return fetch(o, o.runArtifact(k, snapFn))
	})
	if err != nil {
		return nil, err
	}
	o.note(k, res)
	return cloneResult(res), nil
}

// note records a Result a report consumed on the options' observer,
// under its store key, for the -flamegraph and -timeline exports
// (obs.Observer.Note).
func (o Options) note(k runKey, res *vmm.Result) {
	if !o.Obs.Noting() {
		return
	}
	o.Obs.Note(o.obsTag(k.cfg, k.app), k.fileKey(), res.Attrib, res.Timeline)
}

// runArtifact is a run result as the store sees it: a CRUN2 record
// under the run's key, built by simulating. Through fetch it fills one
// run-cache slot: from the disk store when enabled and warm, otherwise
// by simulating, single-flighted across processes and published back.
func (o Options) runArtifact(k runKey, snapFn snapFunc) store.Artifact[*vmm.Result] {
	return store.Artifact[*vmm.Result]{
		Key:    k.fileKey,
		Ext:    ".run",
		Tag:    func() string { return o.obsTag(k.cfg, k.app) },
		Decode: decodeResult,
		Encode: encodeResult,
		Build: func() (*vmm.Result, error) {
			prog, err := workload.App(k.app, k.scale)
			if err != nil {
				return nil, err
			}
			return o.runObserved(k.cfg, prog, k.app, k.instrs, snapFn)
		},
	}
}

// store returns the options' handle on their run store, or nil when
// persistence is disabled. The first handle per directory runs one GC
// sweep, unless storeTest edited the handle.
func (o Options) store() *store.Store {
	if o.Store == "" {
		return nil
	}
	s := &store.Store{Dir: o.Store, FS: faultfs.Disk{}, Tuning: store.DefaultTuning, Obs: o.Obs, Ctx: o.ctx()}
	if o.storeTest != nil {
		o.storeTest(s)
	}
	if o.StoreMaxBytes > 0 {
		s.Tuning.MaxBytes = o.StoreMaxBytes
	}
	if o.storeTest == nil {
		s.GCOnce()
	}
	return s
}

// fetch returns an artifact's value through the options' store
// (store.Fetch). FreshRuns skips the reads and the lock but still
// publishes: a later process can reuse the work.
func fetch[T any](o Options, a store.Artifact[T]) (T, error) {
	if !o.FreshRuns {
		return store.Fetch(o.store(), a)
	}
	v, err := a.Build()
	if err == nil {
		store.Put(o.store(), a, v) // best-effort
	}
	return v, err
}

// ctx returns the options' cancellation context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// obsTag labels a run's events and recorder: "model/app".
func (o Options) obsTag(cfg vmm.Config, app string) string {
	return fmt.Sprintf("%v/%s", cfg.Strategy, app)
}

// runObserved simulates one run, minting a per-run recorder and keeping
// the process-level run counters when observability is enabled. A
// non-nil snapFn supplies the warm-start snapshot, materialized only
// here — on the simulate path, never on a cache or store hit. A
// snapshot failure degrades the run to a cold start (snapFn reports
// nil in that case), never to an error: warm start is an accelerator
// of the simulated machine, and the run must still produce a report.
func (o Options) runObserved(cfg vmm.Config, prog *workload.Program, app string, instrs uint64, snapFn snapFunc) (*vmm.Result, error) {
	var snap *codecache.Snapshot
	if snapFn != nil && cfg.WarmStart != vmm.WarmOff {
		var err error
		if snap, err = snapFn(); err != nil {
			return nil, err
		}
	}
	if o.Obs == nil {
		return machine.RunConfigWarm(cfg, prog, instrs, nil, snap)
	}
	o.Obs.Proc.Counter("runs.started", "runs").Inc()
	res, err := machine.RunConfigWarm(cfg, prog, instrs, o.Obs.NewRun(o.obsTag(cfg, app)), snap)
	if err == nil {
		o.Obs.Proc.Counter("runs.done", "runs").Inc()
	}
	return res, err
}

// cloneResult copies a result deeply enough to hand out: Samples and
// Metrics are the reference-typed fields. (Metric bucket slices, the
// attribution snapshot and the timeline are shared — all are immutable
// once taken.)
func cloneResult(r *vmm.Result) *vmm.Result {
	c := *r
	c.Samples = append([]vmm.Sample(nil), r.Samples...)
	c.Metrics = append(obs.Snapshot(nil), r.Metrics...)
	return &c
}
