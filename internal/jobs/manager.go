package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"codesignvm/internal/experiments"
	"codesignvm/internal/obs"
)

// Runner executes one validated spec and returns its report text. The
// production runner dispatches through experiments.RunExperiment with
// the manager's run store attached; tests substitute stubs. ctx is the
// job's cancellation context (DELETE /jobs/{id} and drain deadlines
// cancel it); jobObs is the job's private observer for progress.
type Runner func(ctx context.Context, spec Spec, jobObs *obs.Observer) (string, error)

// Config parameterizes a Manager.
type Config struct {
	// Workers is the worker-pool size: at most this many jobs execute
	// concurrently (each job still parallelizes its own experiment
	// grid internally). Default 2 — jobs are whole sweeps, not small
	// requests, so a small pool with a visible queue beats
	// oversubscribing the grid's own GOMAXPROCS budget.
	Workers int
	// QueueDepth bounds the number of queued (accepted, not yet
	// running) jobs; a full queue rejects submissions with
	// ErrQueueFull (HTTP 429). Default 16.
	QueueDepth int
	// Store is the run-store directory every job executes against
	// (experiments.Options.Store): it is what makes the service
	// exactly-once and gives duplicate specs their free dedupe.
	// Required unless Runner is overridden.
	Store string
	// StoreMaxBytes caps the store (experiments.Options.StoreMaxBytes).
	StoreMaxBytes int64
	// Sequential forces each job's experiment grid to run inline
	// (experiments.Options.Sequential); used by tests.
	Sequential bool
	// Obs is the process observer the manager reports service metrics
	// and lifecycle events into (jobs.* — see OBSERVABILITY.md); nil
	// disables service observability. Per-job run progress always
	// works: jobs carry their own private observers.
	Obs *obs.Observer
	// Runner overrides the execution path (tests); nil selects the
	// experiments-backed production runner.
	Runner Runner
	// BaseCtx is the root context jobs derive their contexts from;
	// nil means context.Background. Cancelling it aborts every
	// running job.
	BaseCtx context.Context
}

// Submission rejection errors (mapped to HTTP 429/503 by the API).
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity: explicit backpressure, retry later.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects a submission because the manager is shutting
	// down gracefully.
	ErrDraining = errors.New("jobs: draining, not accepting jobs")
)

// ErrUnknownJob reports a job id the manager has never issued.
var ErrUnknownJob = errors.New("jobs: unknown job")

// ErrFinished reports a cancel request against a job already in a
// terminal state.
var ErrFinished = errors.New("jobs: job already finished")

// Manager owns the job table, the bounded queue and the worker pool.
// Create one with NewManager; it accepts submissions until Drain.
type Manager struct {
	cfg    Config
	obsv   *obs.Observer // process observer (may be nil)
	runner Runner
	queue  chan *Job

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	byKey    map[string]*Job // active (queued/running) job per spec key
	order    []string        // submission order, for List
	seq      int
	running  int
	draining bool
}

// NewManager starts a manager: the worker pool is live on return.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Runner == nil && cfg.Store == "" {
		return nil, errors.New("jobs: Config.Store is required (jobs execute through the run store for exactly-once simulation; see docs/runstore.md)")
	}
	base := cfg.BaseCtx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	m := &Manager{
		cfg:        cfg,
		obsv:       cfg.Obs,
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		byKey:      map[string]*Job{},
	}
	m.runner = cfg.Runner
	if m.runner == nil {
		m.runner = m.runExperiments
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Workers returns the worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// QueueDepth returns the current number of queued jobs.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// runExperiments is the production runner: the spec's experiment list
// through the shared registry, against the manager's run store, under
// the job's context and private observer. Each report is followed by
// one blank line — exactly the vmsim output stream with the
// wall-clock "[exp completed in …]" lines removed (docs/api.md).
func (m *Manager) runExperiments(ctx context.Context, spec Spec, jobObs *obs.Observer) (string, error) {
	opt := experiments.Options{
		Scale:         spec.Scale,
		Apps:          spec.Apps,
		HotThreshold:  spec.HotThreshold,
		Sequential:    m.cfg.Sequential,
		Store:         m.cfg.Store,
		StoreMaxBytes: m.cfg.StoreMaxBytes,
		Ctx:           ctx,
		Obs:           jobObs,
	}
	if spec.Instrs > 0 {
		opt.LongInstrs = spec.Instrs
		opt.ShortInstrs = spec.Instrs / 5
	}
	var out strings.Builder
	for _, exp := range experiments.ExpandExperiment(spec.Exp) {
		txt, err := experiments.RunExperiment(exp, opt, spec.App)
		if err != nil {
			return "", fmt.Errorf("%s: %w", exp, err)
		}
		out.WriteString(txt)
		out.WriteByte('\n')
	}
	return out.String(), nil
}

// Submit validates and enqueues one spec. When an identical spec
// (same Spec.Key) is already queued or running and spec.Force is
// unset, the existing job is returned with existing=true — idempotent
// submission. Rejections return ErrQueueFull / ErrDraining; invalid
// specs return the validation error.
func (m *Manager) Submit(spec Spec) (j *Job, existing bool, err error) {
	spec, err = spec.Validate()
	if err != nil {
		return nil, false, err
	}
	key := spec.Key()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.countRejected("drain", 2)
		return nil, false, ErrDraining
	}
	if !spec.Force {
		if prev := m.byKey[key]; prev != nil {
			m.count("jobs.deduped")
			return prev, true, nil
		}
	}
	m.seq++
	j = &Job{
		id:      fmt.Sprintf("j%d-%s", m.seq, key[:8]),
		key:     key,
		spec:    spec,
		created: time.Now(),
		obsv:    obs.NewObserver(nil),
		done:    make(chan struct{}),
		state:   StateQueued,
	}
	select {
	case m.queue <- j:
	default:
		m.seq-- // the job was never issued
		m.countRejected("queue", 1)
		return nil, false, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.byKey[key] = j
	m.order = append(m.order, j.id)
	m.count("jobs.submitted")
	m.setGauges()
	m.emit(obs.EvJobSubmit, j.id+" "+spec.Exp, uint64(len(m.queue)), 0, 0)
	return j, false, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel requests cancellation: a queued job cancels immediately
// (workers skip it); a running job's context is cancelled, which
// aborts store lock waits and stops its experiment grid picking up
// new tasks (the terminal state lands when the runner returns).
// Returns ErrUnknownJob / ErrFinished when there is nothing to cancel.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return ErrUnknownJob
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.cancelled = true
		j.errText = "cancelled while queued"
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		m.retire(j)
		m.count("jobs.cancelled")
		m.emit(obs.EvJobCancel, j.id+" "+j.spec.Exp, 0, 0, 0)
		return nil
	case StateRunning:
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		m.emit(obs.EvJobCancel, j.id+" "+j.spec.Exp, 1, 0, 0)
		return nil
	default:
		j.mu.Unlock()
		return ErrFinished
	}
}

// Drain stops accepting submissions and waits for every accepted job
// (queued and running) to finish. If ctx expires first, the remaining
// jobs are cancelled and Drain waits for the workers to exit, then
// returns ctx's error. Safe to call once; later calls just wait.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	if !already {
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-done
		return ctx.Err()
	}
}

// worker executes queued jobs until the queue closes (Drain).
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job from queued to a terminal state.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	m.mu.Lock()
	m.running++
	m.setGauges()
	m.mu.Unlock()
	m.emit(obs.EvJobStart, j.id+" "+j.spec.Exp, uint64(len(m.queue)), 0, 0)

	start := time.Now()
	report, panicked, err := m.run(ctx, j)
	wall := time.Since(start)

	j.mu.Lock()
	var terminal uint64 // EvJobDone a-payload: 0 done, 1 failed, 2 cancelled
	switch {
	case err == nil:
		j.state = StateDone
		j.result = report
	case panicked:
		j.state = StateFailed
		j.errText = err.Error()
		terminal = 1
	case j.cancelled || ctx.Err() != nil:
		j.state = StateCancelled
		j.errText = fmt.Sprintf("cancelled: %v", err)
		terminal = 2
	default:
		j.state = StateFailed
		j.errText = err.Error()
		terminal = 1
	}
	j.finished = time.Now()
	resultBytes := len(j.result)
	close(j.done)
	j.mu.Unlock()

	m.retire(j)
	m.mu.Lock()
	m.running--
	m.setGauges()
	m.mu.Unlock()
	switch terminal {
	case 0:
		m.count("jobs.done")
	case 1:
		m.count("jobs.failed")
	case 2:
		m.count("jobs.cancelled")
	}
	m.emit(obs.EvJobDone, j.id+" "+j.spec.Exp, terminal, uint64(resultBytes), uint64(wall.Nanoseconds()))
}

// run calls the runner with a panic turned into the job's error, so
// one bad run fails its own job instead of the process and every other
// accepted job with it.
func (m *Manager) run(ctx context.Context, j *Job) (report string, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked, err = true, fmt.Errorf("panic: %v", r)
		}
	}()
	report, err = m.runner(ctx, j.spec, j.obsv)
	return report, false, err
}

// retire drops the job's active-dedupe entry (the job stays in the
// table for status and result retrieval).
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	if m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	m.mu.Unlock()
}

// count bumps one process-level service counter.
func (m *Manager) count(name string) {
	if m.obsv == nil {
		return
	}
	m.obsv.Proc.Counter(name, "jobs").Inc()
}

// countRejected bumps the per-reason rejection counter and emits the
// reject event (reason: 0 rate-limited, 1 queue full, 2 draining —
// the rate-limit reject is emitted by the HTTP layer).
func (m *Manager) countRejected(reason string, code uint64) {
	if m.obsv == nil {
		return
	}
	m.obsv.Proc.Counter("jobs.rejected."+reason, "jobs").Inc()
	m.obsv.Emit(obs.EvJobReject, reason, 0, code, 0, 0)
}

// setGauges refreshes the queue-depth and running gauges; callers
// hold m.mu (m.running) — len(m.queue) is safe either way.
func (m *Manager) setGauges() {
	if m.obsv == nil {
		return
	}
	m.obsv.Proc.Gauge("jobs.queue_depth", "jobs").Set(float64(len(m.queue)))
	m.obsv.Proc.Gauge("jobs.running", "jobs").Set(float64(m.running))
}

// emit issues one job lifecycle event on the process observer.
func (m *Manager) emit(k obs.EventKind, tag string, a, b, c uint64) {
	m.obsv.Emit(k, tag, 0, a, b, c)
}
