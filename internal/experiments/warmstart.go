package experiments

import (
	"bytes"
	"fmt"

	"codesignvm/internal/codecache"
	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// Warm-start experiment: the persistent-translation-cache subsystem
// (vmm.Config.WarmStart, codecache CCVM2 snapshots) measured as a
// Fig. 2-style startup figure. A cold VM.soft run produces a snapshot
// of its BBT/SBT translations; warm arms restore from it — lazily
// (translations fault in on first dispatch miss), hybrid (hottest head
// preloaded eagerly, tail lazy) or eagerly (everything up front) — and
// their startup curves are compared against the cold VM and the Ref
// superscalar.
//
// Snapshots are cached exactly as run results are: an in-process
// memoization (snapCache) over the cross-process disk store (<key>.ccvm
// records, through the same fetch path as runs). Because producing a
// snapshot requires a complete cold simulation, the producer's cold
// Result is published into the run caches as well, so the figure's cold
// arm never re-simulates it.

// snapCache memoizes parsed snapshots process-wide, keyed like the cold
// producer run (attribution aside: it cannot change the translations).
// Unlike runCache it is consulted even under FreshRuns: FreshRuns forces
// re-simulation of *measured* runs, but the snapshot is an input
// artifact — rebuilding it per arm would triple the sweep for no
// measurement benefit.
var snapCache memo[runKey, *codecache.Snapshot]

// resetSnapCacheForTest clears the in-process snapshot memoization.
func resetSnapCacheForTest() { snapCache.reset() }

// snapFileKey derives the disk-store key of a snapshot artifact. The
// "ccvm2" prefix separates the namespace from run-result keys (the
// two kinds share the store directory and its lock protocol).
func snapFileKey(cfg vmm.Config, app string, scale int, instrs uint64) string {
	return hashKey("ccvm2 v%d\n%#v\n%s\n%d\n%d\n", runSchema, cfg, app, scale, instrs)
}

// snapshotFor returns the lazy snapshot source for one (cold config,
// app) pair, suitable for runAppWarm: nothing is built or loaded until
// a simulation actually needs the snapshot.
func (o Options) snapshotFor(cold vmm.Config, app string, instrs uint64) snapFunc {
	return func() (*codecache.Snapshot, error) {
		return o.snapshot(cold, app, instrs)
	}
}

// snapshot produces (or reuses) the translation snapshot of one cold
// run: memoized in-process, then from the disk store when enabled and
// warm, otherwise by running the cold producer, single-flighted across
// processes and published back (fetch). Store corruption, truncation or
// any other store failure degrades to rebuilding — a warm run never
// restores from a questionable artifact.
func (o Options) snapshot(cold vmm.Config, app string, instrs uint64) (*codecache.Snapshot, error) {
	scale := o.Scale
	if scale < 1 {
		scale = 1
	}
	return snapCache.get(o.ctx(), runKey{cold, app, scale, instrs, ""}, func() (*codecache.Snapshot, error) {
		return fetch(o, artifact[*codecache.Snapshot]{
			key:    func() string { return snapFileKey(cold, app, scale, instrs) },
			ext:    ".ccvm",
			tag:    func() string { return o.obsTag(cold, app) + " snapshot" },
			decode: decodeSnapshot,
			encode: (*codecache.Snapshot).Bytes,
			build: func() (*codecache.Snapshot, error) {
				return o.buildSnapshot(cold, app, scale, instrs)
			},
		})
	})
}

// buildSnapshot runs the cold producer and serializes its translation
// caches. The producer run is itself a complete, valid cold
// simulation, so its Result is published to the run store and seeded
// into the in-process run cache: the figure's cold arm (and any peer
// process) reuses it instead of re-simulating.
func (o Options) buildSnapshot(cold vmm.Config, app string, scale int, instrs uint64) (*codecache.Snapshot, error) {
	prog, err := workload.App(app, scale)
	if err != nil {
		return nil, err
	}
	vm := vmm.New(cold, prog.Memory(), prog.InitState())
	if o.Obs != nil {
		o.Obs.Proc.Counter("runs.started", "runs").Inc()
		vm.SetObserver(o.Obs.NewRun(o.obsTag(cold, app)))
	}
	res, err := vm.Run(instrs)
	if err != nil {
		return nil, err
	}
	if o.Obs != nil {
		o.Obs.Proc.Counter("runs.done", "runs").Inc()
	}
	var buf bytes.Buffer
	if err := vm.SaveTranslations(&buf); err != nil {
		return nil, err
	}
	snap, err := codecache.ParseSnapshot(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if s := o.store(); s != nil {
		s.save(runFileKey(cold, app, scale, instrs, o.attribKey()), res) // best-effort
	}
	if !o.FreshRuns {
		// Seed under the same attribution key the runs above used: the
		// producer's recorder came from the same observer, so its result
		// carries exactly the payload that key promises.
		runCache.get(o.ctx(), runKey{cold, app, scale, instrs, o.attribKey()}, func() (*vmm.Result, error) {
			return res, nil
		})
	}
	return snap, nil
}

// warmArms defines the figure's arms in display order: the reference
// superscalar, the cold co-designed VM, and the three warm-start
// restore policies. Warm modes are distinct simulated machines
// (different Config values), so each arm has its own cache/store
// identity.
var warmArms = []struct {
	name string
	ref  bool          // Ref superscalar instead of VM.soft
	mode vmm.WarmStart // restore policy for the VM arms
}{
	{"Ref", true, vmm.WarmOff},
	{"cold", false, vmm.WarmOff},
	{"lazy", false, vmm.WarmLazy},
	{"hybrid", false, vmm.WarmHybrid},
	{"eager", false, vmm.WarmEager},
}

// WarmStartCurves is the warm-start figure: Fig. 2-style normalized
// aggregate-IPC startup curves for the cold VM and each restore
// policy, against the Ref superscalar.
type WarmStartCurves struct {
	Opt  Options
	Arms []string
	Grid []float64
	// Curves[arm] is the normalized aggregate IPC at each grid point.
	Curves map[string][]float64
	// SteadyNorm[arm] is the arm's steady-state IPC normalized to Ref's.
	SteadyNorm map[string]float64
	// Breakeven[arm] is the harmonic-mean-over-apps breakeven point in
	// cycles vs Ref (0 when the arm never catches Ref within the traces).
	Breakeven map[string]float64
	// Restored[arm] is the mean restored-translation count per app
	// (0 for Ref and cold).
	Restored map[string]float64

	perApp map[string]map[string]*vmm.Result
}

// Result returns the per-app raw result of one arm.
func (s *WarmStartCurves) Result(app, arm string) *vmm.Result {
	return s.perApp[app][arm]
}

// WarmStartFig runs the warm-start startup figure: for every app, a
// cold VM.soft run produces a translation snapshot, then the lazy,
// hybrid and eager arms restore from that same snapshot and race the
// cold VM and Ref through the startup transient. Reductions follow
// runStartup exactly (suite-order iteration, harmonic means), so the
// report is byte-identical however the grid is scheduled.
func WarmStartFig(opt Options) (*WarmStartCurves, error) {
	opt = opt.withDefaults()
	out := &WarmStartCurves{
		Opt:        opt,
		Grid:       nil,
		Curves:     map[string][]float64{},
		SteadyNorm: map[string]float64{},
		Breakeven:  map[string]float64{},
		Restored:   map[string]float64{},
		perApp:     map[string]map[string]*vmm.Result{},
	}
	for _, arm := range warmArms {
		out.Arms = append(out.Arms, arm.name)
	}
	cold := opt.configFor(machine.VMSoft)

	// The (app × arm) grid runs on the bounded pool, each task writing
	// its own flat slot. Warm arms share one snapshot per app; the
	// snapshot cache single-flights its production, so however the pool
	// schedules the arms, the cold producer runs once.
	na := len(warmArms)
	flat := make([]*vmm.Result, len(opt.Apps)*na)
	err := opt.forEachTask(len(flat), func(i int) error {
		app, arm := opt.Apps[i/na], warmArms[i%na]
		var cfg vmm.Config
		var snapFn snapFunc
		if arm.ref {
			cfg = opt.configFor(machine.Ref)
		} else {
			cfg = cold
			cfg.WarmStart = arm.mode
			if arm.mode != vmm.WarmOff {
				snapFn = opt.snapshotFor(cold, app, opt.LongInstrs)
			}
		}
		res, err := opt.runAppWarm(cfg, app, opt.LongInstrs, snapFn)
		if err != nil {
			return fmt.Errorf("%s arm %s: %w", app, arm.name, err)
		}
		flat[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, app := range opt.Apps {
		results := make(map[string]*vmm.Result, na)
		for mi, arm := range warmArms {
			results[arm.name] = flat[ai*na+mi]
		}
		out.perApp[app] = results
	}

	// Reductions iterate opt.Apps in suite order (never the perApp map)
	// so floating-point accumulation is deterministic.
	maxCycles := 0.0
	for _, app := range opt.Apps {
		if ref, ok := out.perApp[app]["Ref"]; ok && ref.Cycles > maxCycles {
			maxCycles = ref.Cycles
		}
	}
	if maxCycles == 0 {
		maxCycles = 1e6
	}
	out.Grid = metrics.LogGrid(1e3, maxCycles, 4)

	refSteady := map[string]float64{}
	for _, app := range opt.Apps {
		if ref, ok := out.perApp[app]["Ref"]; ok {
			refSteady[app] = metrics.SteadyIPC(ref.Samples, 0.5)
		}
	}

	for _, arm := range warmArms {
		curve := make([]float64, len(out.Grid))
		for gi, c := range out.Grid {
			vals := make([]float64, 0, len(opt.Apps))
			for _, app := range opt.Apps {
				res := out.perApp[app][arm.name]
				rs := refSteady[app]
				if res == nil || rs <= 0 {
					continue
				}
				vals = append(vals, metrics.InstrsAt(res.Samples, c)/c/rs)
			}
			curve[gi] = metrics.HarmonicMean(vals)
		}
		out.Curves[arm.name] = curve

		var steadies, bes []float64
		restored, counted := 0.0, 0
		for _, app := range opt.Apps {
			res := out.perApp[app][arm.name]
			rs := refSteady[app]
			if res == nil || rs <= 0 {
				continue
			}
			steadies = append(steadies, metrics.SteadyIPC(res.Samples, 0.5)/rs)
			restored += float64(res.RestoredTranslations)
			counted++
			if !arm.ref {
				ref := out.perApp[app]["Ref"]
				if be, ok := metrics.Breakeven(ref.Samples, res.Samples); ok {
					bes = append(bes, be)
				}
			}
		}
		out.SteadyNorm[arm.name] = metrics.HarmonicMean(steadies)
		if counted > 0 {
			out.Restored[arm.name] = restored / float64(counted)
		}
		if len(bes) == len(opt.Apps) && !arm.ref {
			out.Breakeven[arm.name] = metrics.HarmonicMean(bes)
		}
	}
	return out, nil
}

// FormatWarmStart renders the warm-start figure as a text table.
func FormatWarmStart(s *WarmStartCurves) string {
	out := "Warm start — startup curves: cold VM.soft vs persistent-cache restore (lazy/hybrid/eager)\n"
	out += fmt.Sprintf("%-14s", "cycles")
	for _, arm := range s.Arms {
		out += fmt.Sprintf("%12s", arm)
	}
	out += "\n"
	for gi := 0; gi < len(s.Grid); gi += 4 {
		out += fmt.Sprintf("%-14.3g", s.Grid[gi])
		for _, arm := range s.Arms {
			out += fmt.Sprintf("%12.3f", s.Curves[arm][gi])
		}
		out += "\n"
	}
	out += fmt.Sprintf("%-14s", "steady")
	for _, arm := range s.Arms {
		out += fmt.Sprintf("%12.3f", s.SteadyNorm[arm])
	}
	out += "\n"
	for _, arm := range s.Arms {
		if be, ok := s.Breakeven[arm]; ok && be > 0 {
			out += fmt.Sprintf("breakeven %s: %.3g cycles\n", arm, be)
		}
	}
	for _, arm := range s.Arms {
		if r := s.Restored[arm]; r > 0 {
			out += fmt.Sprintf("restored translations/app (mean) %s: %.1f\n", arm, r)
		}
	}
	return out
}
