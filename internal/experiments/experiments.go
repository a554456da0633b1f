package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/obs"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// Options scales and scopes an experiment run.
type Options struct {
	// Scale divides the paper-sized workload footprints and trace
	// lengths (DESIGN.md §6). Scale 25 is the default reporting scale;
	// Scale 1 reproduces full-paper sizing.
	Scale int
	// LongInstrs is the 500M-equivalent trace length (default 500M/Scale).
	LongInstrs uint64
	// ShortInstrs is the 100M-equivalent trace length (default 100M/Scale).
	ShortInstrs uint64
	// Apps restricts the benchmark set (default: the full suite).
	Apps []string
	// Sequential disables (app × model) parallelism: the grid runs
	// inline on the calling goroutine. Reports are byte-identical
	// either way; parallelism only changes wall-clock time.
	Sequential bool
	// FreshRuns bypasses the process-wide simulation-result cache
	// (the per-(config, app, scale, budget) memoization), forcing
	// every run to simulate. Used by benchmarks measuring simulation
	// speed. It also skips disk-store reads (but not writes; see
	// Store).
	FreshRuns bool
	// Store names a directory for the persistent cross-process run
	// store: finished runs are written there and future runs (in this
	// or any other process) with the same content hash are loaded
	// instead of simulated. Empty disables persistence. The store is
	// crash-safe and self-healing (docs/runstore.md): corrupt records
	// are quarantined and re-simulated, abandoned locks are stolen,
	// and any store failure degrades to simulating.
	Store string
	// StoreMaxBytes caps the on-disk size of the run store: the
	// once-per-process GC sweep evicts least-recently-used records
	// until the store fits. 0 leaves the store uncapped.
	StoreMaxBytes int64
	// Ctx cancels long waits: store lock waits return its error and
	// the experiment grid stops picking up new tasks once it is done.
	// Nil means context.Background (never cancelled).
	Ctx context.Context
	// HotThreshold overrides the Eq. 2 hot threshold (0 keeps the model
	// default: 8000 for BBT-based schemes, 25 for interpretation). The
	// interpreted-mode threshold is scaled proportionally. Used for
	// threshold-sensitivity studies and fast smoke runs.
	HotThreshold uint64
	// Obs attaches the observability layer (internal/obs): every fresh
	// simulation gets a per-run recorder minted from this observer (its
	// metric snapshot rides on the Result and is persisted with it),
	// lifecycle events flow to the observer's sink, and process-level
	// counters (runs.started/done, store.hits/misses) update live for
	// progress reporting. Nil disables observability entirely —
	// instrumented and uninstrumented sweeps produce byte-identical
	// reports either way.
	Obs *obs.Observer

	// storeFS substitutes the run store's filesystem (fault-injection
	// tests); nil uses the real disk. storeTun overrides the lock and
	// GC time constants; nil keeps production values. Both are test
	// seams, deliberately unexported.
	storeFS  faultfs.FS
	storeTun *storeTuning
}

// configFor builds the vmm configuration for a model under these
// options.
func (o Options) configFor(m machine.Model) vmm.Config {
	cfg := machine.Config(m)
	if o.HotThreshold > 0 {
		if cfg.Strategy == vmm.StratInterp {
			t := o.HotThreshold * 25 / 8000
			if t < 2 {
				t = 2
			}
			cfg.HotThreshold = t
		} else {
			cfg.HotThreshold = o.HotThreshold
		}
	}
	return cfg
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 25
	}
	if o.LongInstrs == 0 {
		o.LongInstrs = 500_000_000 / uint64(o.Scale)
	}
	if o.ShortInstrs == 0 {
		o.ShortInstrs = 100_000_000 / uint64(o.Scale)
	}
	if len(o.Apps) == 0 {
		o.Apps = workload.Names()
	}
	return o
}

// forEachTask runs fn for every index in [0, n) on a bounded worker
// pool (GOMAXPROCS workers; inline when Sequential) and returns the
// lowest-indexed error. Workers pull indices from a shared counter, so
// callers must write results into index-addressed slots — never
// append in completion order — to keep reductions deterministic. A task
// that panics fails with a "panic: …" error rather than ending the
// process: a pool goroutine is out of reach of any caller's recover.
func (o Options) forEachTask(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	ctx := o.ctx()
	if o.Sequential || workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// A cancelled sweep stops picking up new tasks; the task
				// body itself also observes ctx inside store lock waits.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = runTask(fn, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask calls fn(i), turning a panic into the task's error.
func runTask(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(i)
}

// sampleAt linearly interpolates an arbitrary cumulative field of the
// sample series at the given cycle count.
func sampleAt(samples []vmm.Sample, cycles float64, get func(vmm.Sample) float64) float64 {
	if len(samples) == 0 || cycles <= 0 {
		return 0
	}
	if cycles <= samples[0].Cycles {
		if samples[0].Cycles == 0 {
			return get(samples[0])
		}
		return get(samples[0]) * cycles / samples[0].Cycles
	}
	idx := sort.Search(len(samples), func(i int) bool { return samples[i].Cycles >= cycles })
	if idx >= len(samples) {
		last := samples[len(samples)-1]
		if last.Cycles == 0 {
			return get(last)
		}
		return get(last) * cycles / last.Cycles
	}
	a, b := samples[idx-1], samples[idx]
	if b.Cycles == a.Cycles {
		return get(b)
	}
	f := (cycles - a.Cycles) / (b.Cycles - a.Cycles)
	return get(a) + f*(get(b)-get(a))
}

// StartupCurves is the Fig. 2 / Fig. 8 result: normalized aggregate-IPC
// startup curves (harmonic mean across benchmarks) on a log-cycle grid.
type StartupCurves struct {
	Opt    Options
	Models []machine.Model
	Grid   []float64
	// Curves[model] is the normalized aggregate IPC at each grid point.
	Curves map[machine.Model][]float64
	// SteadyNorm[model] is the model's steady-state IPC normalized to
	// Ref's (the horizontal line in the figures).
	SteadyNorm map[machine.Model]float64
	// Breakeven[model] is the harmonic-mean-over-apps breakeven point in
	// cycles (0 when the model never catches Ref within the traces).
	Breakeven map[machine.Model]float64

	perApp map[string]map[machine.Model]*vmm.Result
}

// Result returns the per-app raw result for further analysis.
func (s *StartupCurves) Result(app string, m machine.Model) *vmm.Result {
	return s.perApp[app][m]
}

// runStartup executes the given models across the suite and assembles
// the startup-curve report.
func runStartup(opt Options, models []machine.Model) (*StartupCurves, error) {
	opt = opt.withDefaults()
	out := &StartupCurves{
		Opt:        opt,
		Models:     models,
		Curves:     map[machine.Model][]float64{},
		SteadyNorm: map[machine.Model]float64{},
		Breakeven:  map[machine.Model]float64{},
		perApp:     map[string]map[machine.Model]*vmm.Result{},
	}
	// The (app × model) grid runs on the bounded pool; each task writes
	// its own flat slot, so no locking and no completion-order effects.
	nm := len(models)
	flat := make([]*vmm.Result, len(opt.Apps)*nm)
	err := opt.forEachTask(len(flat), func(i int) error {
		app, m := opt.Apps[i/nm], models[i%nm]
		res, err := opt.runApp(opt.configFor(m), app, opt.LongInstrs)
		if err != nil {
			return fmt.Errorf("%s on %v: %w", app, m, err)
		}
		flat[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, app := range opt.Apps {
		results := make(map[machine.Model]*vmm.Result, nm)
		for mi, m := range models {
			results[m] = flat[ai*nm+mi]
		}
		out.perApp[app] = results
	}

	// All reductions below iterate opt.Apps in suite order (never the
	// perApp map) so floating-point accumulation is deterministic and
	// reports are byte-identical regardless of scheduling.

	// Grid: up to the longest Ref run.
	maxCycles := 0.0
	for _, app := range opt.Apps {
		if ref, ok := out.perApp[app][machine.Ref]; ok && ref.Cycles > maxCycles {
			maxCycles = ref.Cycles
		}
	}
	if maxCycles == 0 {
		maxCycles = 1e6
	}
	out.Grid = metrics.LogGrid(1e3, maxCycles, 4)

	// Per-app reference steady IPC for normalization.
	refSteady := map[string]float64{}
	for _, app := range opt.Apps {
		if ref, ok := out.perApp[app][machine.Ref]; ok {
			refSteady[app] = metrics.SteadyIPC(ref.Samples, 0.5)
		}
	}

	for _, m := range models {
		curve := make([]float64, len(out.Grid))
		for gi, c := range out.Grid {
			vals := make([]float64, 0, len(opt.Apps))
			for _, app := range opt.Apps {
				res := out.perApp[app][m]
				rs := refSteady[app]
				if res == nil || rs <= 0 {
					continue
				}
				vals = append(vals, metrics.InstrsAt(res.Samples, c)/c/rs)
			}
			curve[gi] = metrics.HarmonicMean(vals)
		}
		out.Curves[m] = curve

		// Steady-state line and breakeven.
		var steadies, bes []float64
		for _, app := range opt.Apps {
			res := out.perApp[app][m]
			rs := refSteady[app]
			if res == nil || rs <= 0 {
				continue
			}
			steadies = append(steadies, metrics.SteadyIPC(res.Samples, 0.5)/rs)
			if m != machine.Ref {
				ref := out.perApp[app][machine.Ref]
				if be, ok := metrics.Breakeven(ref.Samples, res.Samples); ok {
					bes = append(bes, be)
				}
			}
		}
		out.SteadyNorm[m] = metrics.HarmonicMean(steadies)
		if len(bes) == len(opt.Apps) && m != machine.Ref {
			out.Breakeven[m] = metrics.HarmonicMean(bes)
		}
	}
	return out, nil
}

// Fig2 reproduces Figure 2: startup performance of the software-only
// staged VMs (BBT+SBT and Interp+SBT) against the reference superscalar.
func Fig2(opt Options) (*StartupCurves, error) {
	return runStartup(opt, []machine.Model{machine.Ref, machine.VMSoft, machine.VMInterp})
}

// Fig8 reproduces Figure 8: startup performance with the hardware
// assists (VM.be, VM.fe) added to the Figure 2 comparison.
func Fig8(opt Options) (*StartupCurves, error) {
	return runStartup(opt, []machine.Model{machine.Ref, machine.VMSoft, machine.VMBE, machine.VMFE})
}

// FormatStartup renders a startup-curve report as a text table.
func FormatStartup(s *StartupCurves, title string) string {
	out := title + "\n"
	out += fmt.Sprintf("%-14s", "cycles")
	for _, m := range s.Models {
		out += fmt.Sprintf("%12s", m)
	}
	out += "\n"
	// Thin the grid for printing: every 4th point (one per decade).
	for gi := 0; gi < len(s.Grid); gi += 4 {
		out += fmt.Sprintf("%-14.3g", s.Grid[gi])
		for _, m := range s.Models {
			out += fmt.Sprintf("%12.3f", s.Curves[m][gi])
		}
		out += "\n"
	}
	out += fmt.Sprintf("%-14s", "steady")
	for _, m := range s.Models {
		out += fmt.Sprintf("%12.3f", s.SteadyNorm[m])
	}
	out += "\n"
	for _, m := range s.Models {
		if be, ok := s.Breakeven[m]; ok && be > 0 {
			out += fmt.Sprintf("breakeven %v: %.3g cycles\n", m, be)
		}
	}
	return out
}
