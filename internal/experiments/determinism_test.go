package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"codesignvm/internal/machine"
)

// detOpt is small enough for -race runs yet long enough to exercise
// translation and multi-app float reductions. FreshRuns keeps the two
// arms of every comparison actually simulating.
func detOpt() Options {
	return Options{
		Scale:       200,
		LongInstrs:  600_000,
		ShortInstrs: 250_000,
		Apps:        []string{"Word", "Winzip", "Project"},
		FreshRuns:   true,
	}
}

// TestParallelReportsMatchSequential checks the tentpole invariant of
// the (app × model) grid: the parallel pool must produce reports
// byte-identical to Sequential runs — same values, same ordering, no
// completion-order float drift.
func TestParallelReportsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	seq := detOpt()
	seq.Sequential = true
	par := detOpt()

	harnesses := []struct {
		name string
		run  func(Options) (string, error)
	}{
		{"fig2", func(o Options) (string, error) {
			r, err := Fig2(o)
			if err != nil {
				return "", err
			}
			return FormatStartup(r, "fig2"), nil
		}},
		{"fig3", func(o Options) (string, error) {
			r, err := Fig3(o)
			if err != nil {
				return "", err
			}
			return FormatFig3(r), nil
		}},
		{"fig9", func(o Options) (string, error) {
			r, err := Fig9(o)
			if err != nil {
				return "", err
			}
			return FormatFig9(r), nil
		}},
		{"fig10", func(o Options) (string, error) {
			r, err := Fig10(o)
			if err != nil {
				return "", err
			}
			return FormatFig10(r), nil
		}},
		{"ablation", func(o Options) (string, error) {
			r, err := Ablation(o)
			if err != nil {
				return "", err
			}
			return FormatAblation(r), nil
		}},
	}
	for _, h := range harnesses {
		want, err := h.run(seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", h.name, err)
		}
		got, err := h.run(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", h.name, err)
		}
		if got != want {
			t.Errorf("%s: parallel report differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s", h.name, want, got)
		}
	}
}

// TestForEachTaskRunsConcurrently: with GOMAXPROCS >= 2 and no
// Sequential, the grid's worker pool must run tasks at the same time.
// The two tasks rendezvous — each signals its arrival and waits for the
// other's — so a pool that runs them one after the other times out.
func TestForEachTaskRunsConcurrently(t *testing.T) {
	if old := runtime.GOMAXPROCS(2); old != 2 {
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	err := Options{}.forEachTask(2, func(i int) error {
		close(arrived[i])
		select {
		case <-arrived[1-i]:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("task %d waited 10 s for task %d: the pool ran them one at a time", i, 1-i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForEachTaskRecoversPanic: a task that panics on a pool goroutine
// fails the call with a "panic:" error instead of ending the process,
// and the pool still runs every other task. The sequential loop reports
// a panic the same way.
func TestForEachTaskRecoversPanic(t *testing.T) {
	if old := runtime.GOMAXPROCS(2); old != 2 {
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	const n = 6
	var ran [n]atomic.Bool
	err := Options{Sequential: false}.forEachTask(n, func(i int) error {
		ran[i].Store(true)
		if i == 1 {
			panic("task 1 fault")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic:") {
		t.Fatalf("pooled forEachTask returned %v, want a panic: error", err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("task %d never ran", i)
		}
	}
	err = Options{Sequential: true}.forEachTask(n, func(i int) error {
		if i == 1 {
			panic("task 1 fault")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic:") {
		t.Fatalf("sequential forEachTask returned %v, want a panic: error", err)
	}
}

// reportAcrossGridModes renders the named report harness with the
// grid's (app × arm) tasks run sequentially and on the parallel pool,
// each arm from cleared in-process caches so it builds its own
// warm-start snapshots, and fails unless the two reports are
// byte-identical. GOMAXPROCS is raised to 2 so the parallel arm really
// runs tasks at once.
func reportAcrossGridModes(t *testing.T, name string, o Options) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	var run func(Options) (string, error)
	for _, h := range reportHarnesses {
		if h.name == name {
			run = h.run
		}
	}
	var reports [2]string
	for i, seq := range []bool{true, false} {
		ResetRunCacheForTest()
		o.Sequential = seq
		txt, err := run(o)
		if err != nil {
			t.Fatalf("%s (sequential=%v): %v", name, seq, err)
		}
		reports[i] = txt
	}
	if reports[0] != reports[1] {
		t.Errorf("%s: parallel report differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s",
			name, reports[0], reports[1])
	}
}

// TestParallelCurvesBitIdentical compares the raw (unformatted) curve
// floats, which would expose reduction-order drift below print
// precision.
func TestParallelCurvesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	seq := detOpt()
	seq.Sequential = true
	a, err := Fig2(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig2(detOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Curves, b.Curves) {
		t.Error("parallel curves not bit-identical to sequential")
	}
	if !reflect.DeepEqual(a.SteadyNorm, b.SteadyNorm) {
		t.Error("parallel steady-state norms not bit-identical")
	}
	if !reflect.DeepEqual(a.Breakeven, b.Breakeven) {
		t.Error("parallel breakevens not bit-identical")
	}
}

// TestRunCacheIsolation checks the memoized path: hits are value-equal
// to fresh simulations, returned results are private copies, and
// mutating one cannot corrupt the cache.
func TestRunCacheIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	cfg := opt.configFor(machine.VMSoft)

	a, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("cache handed out a shared result pointer")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cache hit differs from the original run")
	}

	fresh := opt
	fresh.FreshRuns = true
	f, err := fresh.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, b) {
		t.Fatal("cached result differs from an uncached simulation")
	}

	a.Cycles = -1
	if len(a.Samples) > 0 {
		a.Samples[0].Cycles = -1
	}
	c, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, b) {
		t.Fatal("mutating a returned result corrupted the cache")
	}
}
