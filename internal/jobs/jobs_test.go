package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"codesignvm/internal/experiments"
	"codesignvm/internal/obs"
)

// blockingRunner returns a runner that parks until release is closed
// (or the job context is cancelled) and a wait helper for tests that
// need to know a job has started.
func blockingRunner() (r Runner, started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	return func(ctx context.Context, spec Spec, _ *obs.Observer) (string, error) {
		started <- spec.Exp
		select {
		case <-release:
			return "report for " + spec.Exp + "\n", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}, started, release
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	// Stub the runner only when the config has no store: tests that set
	// Store want the real experiments-backed runner.
	if cfg.Runner == nil && cfg.Store == "" {
		cfg.Runner = func(ctx context.Context, spec Spec, _ *obs.Observer) (string, error) {
			return "report for " + spec.Exp + "\n", nil
		}
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return m
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if j.State() == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %v, want %v", j.ID(), j.State(), want)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
		frag string // expected error fragment
	}{
		{"minimal", Spec{Exp: "fig2"}, true, ""},
		{"composite", Spec{Exp: "sweep"}, true, ""},
		{"all", Spec{Exp: "all"}, true, ""},
		{"app-scoped", Spec{Exp: "pressure", App: "Excel"}, true, ""},
		{"missing exp", Spec{}, false, "missing \"exp\""},
		{"unknown exp", Spec{Exp: "fig99"}, false, "unknown experiment"},
		{"run rejected", Spec{Exp: "run"}, false, "interactive CLI mode"},
		{"dump rejected", Spec{Exp: "dump"}, false, "interactive CLI mode"},
		{"bad scale", Spec{Exp: "fig2", Scale: -3}, false, "scale"},
		{"huge scale", Spec{Exp: "fig2", Scale: maxScale + 1}, false, "scale"},
		{"huge instrs", Spec{Exp: "fig2", Instrs: maxInstrs + 1}, false, "instrs"},
		{"bad app", Spec{Exp: "pressure", App: "NotAnApp"}, false, "app"},
		{"bad apps", Spec{Exp: "fig2", Apps: []string{"Word", "Nope"}}, false, "apps"},
		{"bad threshold", Spec{Exp: "fig2", HotThreshold: 20_000_000}, false, "hot_threshold"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.spec.Validate()
			if c.ok {
				if err != nil {
					t.Fatalf("Validate(%+v): %v", c.spec, err)
				}
				if got.Scale == 0 || got.App == "" {
					t.Fatalf("Validate did not fill defaults: %+v", got)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%+v): want error containing %q, got nil", c.spec, c.frag)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("Validate(%+v) error %q does not contain %q", c.spec, err, c.frag)
			}
		})
	}
}

func TestSpecKey(t *testing.T) {
	a, _ := Spec{Exp: "fig2"}.Validate()
	b, _ := Spec{Exp: "fig2", Scale: 25, App: "Word"}.Validate()
	if a.Key() != b.Key() {
		t.Fatalf("default-filled specs should share a key: %s vs %s", a.Key(), b.Key())
	}
	c, _ := Spec{Exp: "fig2", Scale: 50}.Validate()
	if a.Key() == c.Key() {
		t.Fatalf("different scales must not share a key")
	}
	// Force is an envelope property, not simulated content.
	d, _ := Spec{Exp: "fig2", Force: true}.Validate()
	if a.Key() != d.Key() {
		t.Fatalf("Force must not change the key")
	}
	// App order is report order, hence content.
	e1, _ := Spec{Exp: "fig2", Apps: []string{"Word", "Excel"}}.Validate()
	e2, _ := Spec{Exp: "fig2", Apps: []string{"Excel", "Word"}}.Validate()
	if e1.Key() == e2.Key() {
		t.Fatalf("app order must change the key")
	}
}

func TestManagerRequiresStore(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("NewManager without Store or Runner should fail")
	}
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	j, existing, err := m.Submit(Spec{Exp: "table2"})
	if err != nil || existing {
		t.Fatalf("Submit: existing=%v err=%v", existing, err)
	}
	<-j.Done()
	report, errText, state := j.Result()
	if state != StateDone || errText != "" || report != "report for table2\n" {
		t.Fatalf("Result = %q, %q, %v", report, errText, state)
	}
	st := j.Status(true)
	if st.State != StateDone || st.Started == "" || st.Finished == "" || st.ResultBytes != len(report) {
		t.Fatalf("Status = %+v", st)
	}
}

func TestJobFailure(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Runner: func(context.Context, Spec, *obs.Observer) (string, error) {
		return "", errors.New("boom")
	}})
	j, _, err := m.Submit(Spec{Exp: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, errText, state := j.Result(); state != StateFailed || errText != "boom" {
		t.Fatalf("want failed/boom, got %v/%q", state, errText)
	}
}

// TestPanickingJobIsContained: a runner that panics fails its own job
// ("panic: …", counted and evented as failed) and the worker that ran
// it goes on to finish the next job.
func TestPanickingJobIsContained(t *testing.T) {
	sink := obs.NewCollectSink()
	o := obs.NewObserver(sink)
	m := newTestManager(t, Config{Workers: 1, Obs: o, Runner: func(_ context.Context, spec Spec, _ *obs.Observer) (string, error) {
		if spec.Exp == "fig2" {
			panic("simulated fault")
		}
		return "report for " + spec.Exp + "\n", nil
	}})
	bad, _, err := m.Submit(Spec{Exp: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if _, errText, state := bad.Result(); state != StateFailed || errText != "panic: simulated fault" {
		t.Fatalf("panicking job = %v/%q, want failed/\"panic: simulated fault\"", state, errText)
	}
	good, _, err := m.Submit(Spec{Exp: "table2"})
	if err != nil {
		t.Fatal(err)
	}
	<-good.Done()
	if report, _, state := good.Result(); state != StateDone || report != "report for table2\n" {
		t.Fatalf("job after the panic = %v/%q, want done", state, report)
	}
	if n := o.Proc.Counter("jobs.failed", "jobs").Value(); n != 1 {
		t.Fatalf("jobs.failed = %d, want 1", n)
	}
	failed := 0
	for _, e := range sink.Events() {
		if e.Kind == obs.EvJobDone && e.A == 1 {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("job-done events with state 1 = %d, want 1", failed)
	}
}

func TestIdempotentSubmissionAndForce(t *testing.T) {
	r, started, release := blockingRunner()
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 8, Runner: r})
	j1, existing, err := m.Submit(Spec{Exp: "fig2"})
	if err != nil || existing {
		t.Fatalf("first Submit: existing=%v err=%v", existing, err)
	}
	<-started
	j2, existing, err := m.Submit(Spec{Exp: "fig2"})
	if err != nil || !existing || j2 != j1 {
		t.Fatalf("duplicate active spec should dedupe: existing=%v j2==j1=%v err=%v", existing, j2 == j1, err)
	}
	j3, existing, err := m.Submit(Spec{Exp: "fig2", Force: true})
	if err != nil || existing || j3 == j1 {
		t.Fatalf("Force should create a new job: existing=%v err=%v", existing, err)
	}
	close(release)
	<-j1.Done()
	<-j3.Done()
	// After completion the spec is no longer active: resubmission
	// creates a fresh job (which will hit the caches).
	j4, existing, err := m.Submit(Spec{Exp: "fig2"})
	if err != nil || existing || j4 == j1 || j4 == j3 {
		t.Fatalf("post-completion Submit should create a new job: existing=%v err=%v", existing, err)
	}
	<-j4.Done()
}

func TestQueueFullBackpressure(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, Runner: r})
	if _, _, err := m.Submit(Spec{Exp: "fig2", Force: true}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty again
	if _, _, err := m.Submit(Spec{Exp: "fig2", Force: true}); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if _, _, err := m.Submit(Spec{Exp: "fig2", Force: true}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
}

func TestCancelQueued(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4, Runner: r})
	running, _, _ := m.Submit(Spec{Exp: "fig2", Force: true})
	<-started
	queued, _, err := m.Submit(Spec{Exp: "fig8", Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if state := queued.State(); state != StateCancelled {
		t.Fatalf("queued job state = %v, want cancelled", state)
	}
	if err := m.Cancel(queued.ID()); !errors.Is(err, ErrFinished) {
		t.Fatalf("second Cancel: want ErrFinished, got %v", err)
	}
	_ = running
}

func TestCancelRunning(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, Runner: r})
	j, _, err := m.Submit(Spec{Exp: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	<-j.Done()
	if _, errText, state := j.Result(); state != StateCancelled || !strings.Contains(errText, "cancelled") {
		t.Fatalf("want cancelled, got %v/%q", state, errText)
	}
}

func TestCancelUnknown(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	if err := m.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("want ErrUnknownJob, got %v", err)
	}
}

func TestGracefulDrainCompletesAcceptedJobs(t *testing.T) {
	r, started, release := blockingRunner()
	m, err := NewManager(Config{Workers: 1, QueueDepth: 4, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	running, _, _ := m.Submit(Spec{Exp: "fig2", Force: true})
	<-started
	queued, _, _ := m.Submit(Spec{Exp: "fig8", Force: true})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	waitDraining := time.After(5 * time.Second)
	for !m.Draining() {
		select {
		case <-waitDraining:
			t.Fatal("Drain never marked the manager draining")
		case <-time.After(time.Millisecond):
		}
	}
	if _, _, err := m.Submit(Spec{Exp: "fig9", Force: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: want ErrDraining, got %v", err)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, j := range []*Job{running, queued} {
		if _, _, state := j.Result(); state != StateDone {
			t.Fatalf("job %s = %v after drain, want done", j.ID(), state)
		}
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m, err := NewManager(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := m.Submit(Spec{Exp: "fig2"})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain past deadline: want DeadlineExceeded, got %v", err)
	}
	if _, _, state := j.Result(); state != StateCancelled {
		t.Fatalf("straggler = %v, want cancelled", state)
	}
}

func TestServiceMetricsAndEvents(t *testing.T) {
	sink := obs.NewCollectSink()
	o := obs.NewObserver(sink)
	r, started, release := blockingRunner()
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, Runner: r, Obs: o})
	j, _, _ := m.Submit(Spec{Exp: "fig2", Force: true})
	<-started
	m.Submit(Spec{Exp: "fig2", Force: true})                                                  // queued
	if _, _, err := m.Submit(Spec{Exp: "fig2", Force: true}); !errors.Is(err, ErrQueueFull) { // rejected
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	close(release)
	<-j.Done()
	waitCount := func(name string, want uint64) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for o.Proc.Counter(name, "jobs").Value() < want {
			select {
			case <-deadline:
				t.Fatalf("%s = %d, want >= %d", name, o.Proc.Counter(name, "jobs").Value(), want)
			case <-time.After(time.Millisecond):
			}
		}
	}
	waitCount("jobs.submitted", 2)
	waitCount("jobs.rejected.queue", 1)
	waitCount("jobs.done", 2)
	kinds := map[obs.EventKind]int{}
	for _, e := range sink.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvJobSubmit, obs.EvJobStart, obs.EvJobDone, obs.EvJobReject} {
		if kinds[k] == 0 {
			t.Fatalf("no %v event emitted (got %v)", k, kinds)
		}
	}
}

func TestRateLimiter(t *testing.T) {
	l := NewRateLimiter(1, 2)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("third request within burst window should be denied")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want (0, 1s]", retry)
	}
	// A different client has its own bucket.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("client b denied by client a's bucket")
	}
	// Refill: one second buys one token.
	now = now.Add(time.Second)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("refilled token denied")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("bucket should be empty again")
	}
	// Unlimited and nil limiters always allow.
	if ok, _ := NewRateLimiter(0, 1).Allow("x"); !ok {
		t.Fatal("rate 0 should disable limiting")
	}
	var nilL *RateLimiter
	if ok, _ := nilL.Allow("x"); !ok {
		t.Fatal("nil limiter should allow")
	}
}

// TestRateLimiterBoundedUnderUniqueKeys: a stream of distinct client
// keys that never trips the reject path must not grow the bucket table
// without bound — the accept path prunes amortized, so the table stays
// around the number of clients still refilling, not the number ever
// seen.
func TestRateLimiterBoundedUnderUniqueKeys(t *testing.T) {
	l := NewRateLimiter(1000, 2) // refill is fast: an idle bucket is full again in 2ms
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	maxBuckets := 0
	for i := 0; i < 10_000; i++ {
		now = now.Add(10 * time.Millisecond) // every earlier bucket has long refilled
		ok, _ := l.Allow(fmt.Sprintf("client-%d", i))
		if !ok {
			t.Fatalf("request %d rejected: this workload must never hit the reject path", i)
		}
		l.mu.Lock()
		if n := len(l.buckets); n > maxBuckets {
			maxBuckets = n
		}
		l.mu.Unlock()
	}
	// The table may grow up to one prune interval of fresh buckets
	// (plus the kept caller bucket), never toward the 10k keys seen.
	if maxBuckets > pruneEvery+1 {
		t.Fatalf("bucket table peaked at %d entries (prune interval %d): accept-path prune not bounding it", maxBuckets, pruneEvery)
	}
}

// TestFinishedJobsRetainNoMachines: the job table and the run cache it
// fills keep each finished job's report and Results, never the
// simulated machines behind them. A cold fig8 job runs four VMs of
// ≈ 650 KiB each; a Result that pinned its VM would leave them all
// live for the life of the service.
func TestFinishedJobsRetainNoMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const (
		jobs    = 6
		ceiling = 256 << 10 // retained bytes per finished job
	)
	experiments.ResetRunCacheForTest()
	t.Cleanup(experiments.ResetRunCacheForTest)
	m := newTestManager(t, Config{Workers: 1, Store: t.TempDir(), Sequential: true})
	run := func(instrs uint64) {
		t.Helper()
		j, _, err := m.Submit(Spec{Exp: "fig8", Apps: []string{"Winzip"}, Scale: 400, Instrs: instrs})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if _, errText, state := j.Result(); state != StateDone {
			t.Fatalf("job %s ended %v: %s", j.ID(), state, errText)
		}
	}
	// One job first, so the program image and the store's first-use
	// state are in the baseline rather than charged to the measured jobs.
	run(49_999)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < jobs; k++ {
		run(50_000 + uint64(k)) // distinct budgets: every job is cold
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / jobs
	if per > ceiling {
		t.Errorf("each finished job retains %d KiB, ceiling %d KiB: finished jobs pin their machines", per>>10, ceiling>>10)
	} else {
		t.Logf("each finished job retains %d KiB", per>>10)
	}
}
