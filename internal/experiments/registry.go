package experiments

import (
	"fmt"

	"codesignvm/internal/model"
)

// Named experiment registry: the single dispatch table behind both
// cmd/vmsim's -exp flag and the async job service (internal/jobs).
// Every report experiment of the paper's evaluation (plus the
// extension experiments) is runnable by name through RunExperiment,
// which returns the exact report text the CLI prints — so a job
// submitted over HTTP and a vmsim invocation produce byte-identical
// reports by construction, sharing one code path rather than two
// parallel switch statements that could drift.
//
// "run" and "dump" are deliberately absent: they are interactive
// single-run tools whose output embeds host wall-clock timings
// (nondeterministic) and whose inputs are CLI-flag-shaped; the
// deterministic report experiments are the service surface.

// experiment is one named report experiment: run renders its report
// for the options and, for the app-scoped extensions (pressure,
// ctxswitch, deltasweep), the app they study.
type experiment struct {
	name string
	run  func(opt Options, app string) (string, error)
}

// appReport adapts a harness scoped to one app, and its formatter, to
// an experiment's run.
func appReport[R any](harness func(Options, string) (R, error), format func(R) string) func(Options, string) (string, error) {
	return func(opt Options, app string) (string, error) {
		rep, err := harness(opt, app)
		if err != nil {
			return "", err
		}
		return format(rep), nil
	}
}

// report is appReport for a harness that studies every app.
func report[R any](harness func(Options) (R, error), format func(R) string) func(Options, string) (string, error) {
	return appReport(func(opt Options, _ string) (R, error) { return harness(opt) }, format)
}

// startup formats a startup-curve report under title.
func startup(title string) func(*StartupCurves) string {
	return func(r *StartupCurves) string { return FormatStartup(r, title) }
}

// registry lists every named report experiment in the CLI's
// canonical order ("all" runs them in this order). The two composites
// ("sweep", "all") and the interactive modes ("run", "dump") are not
// report experiments and live outside this table.
var registry = []experiment{
	{"table2", func(Options, string) (string, error) { return FormatTable2(), nil }},
	{"table1", func(Options, string) (string, error) {
		rep, err := Table1(20000, 2006)
		if err != nil {
			return "", err
		}
		return FormatTable1(rep), nil
	}},
	{"fig3", report(Fig3, FormatFig3)},
	{"overhead", report(Sec32Overhead, FormatOverhead)},
	{"threshold", func(Options, string) (string, error) {
		return fmt.Sprintf("Eq. 2 — hot threshold N = ΔSBT/(p−1)\nBBT-based (ΔSBT=1200, p=1.15):  N = %.0f\ninterpreted (ΔSBT=1200, p=48):  N = %.0f\n",
			model.HotThreshold(1200, 1.15), model.HotThreshold(1200, 48)), nil
	}},
	{"fig2", report(Fig2, startup("Fig. 2 — startup: software staged VMs vs reference superscalar\n(normalized aggregate IPC, harmonic mean over benchmarks)"))},
	{"fig8", report(Fig8, startup("Fig. 8 — startup with hardware assists\n(normalized aggregate IPC, harmonic mean over benchmarks)"))},
	{"fig9", report(Fig9, FormatFig9)},
	{"fig10", report(Fig10, FormatFig10)},
	{"fig11", report(Fig11, FormatFig11)},
	{"ablation", report(Ablation, FormatAblation)},
	{"persist", report(PersistentStartup, FormatPersist)},
	{"warmstart", report(WarmStartFig, FormatWarmStart)},
	{"pressure", appReport(func(opt Options, app string) (*PressureReport, error) {
		return CodeCachePressure(opt, app, nil)
	}, FormatPressure)},
	{"coldstart", report(ColdStart, FormatColdStart)},
	{"ctxswitch", appReport(ContextSwitch, FormatSwitch)},
	{"staged", report(StagedComparison, startup("Extension — staged-translation strategies\n(normalized aggregate IPC)"))},
	{"deltasweep", appReport(func(opt Options, app string) (*DeltaReport, error) {
		return DeltaBBTSweep(opt, app, nil)
	}, FormatDelta)},
	// "phases" is last: it enables attribution on the shared observer,
	// which shifts the cache identity of every later run (see PhasesFig).
	{"phases", report(PhasesFig, FormatPhases)},
}

// sweepNames is the "sweep" composite: the paper's figures in one
// process, ordered so they share simulation results through the run
// cache (fig8/fig9/fig11 share long-trace runs, fig10's VM.soft run
// seeds the ablation-style short traces).
var sweepNames = []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11"}

// ExperimentNames returns the report experiments runnable by name, in
// canonical order (a fresh slice; callers may sort or filter).
func ExperimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup returns the named report experiment.
func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// IsExperiment reports whether name is a runnable report experiment or
// one of the two composites ("sweep", "all").
func IsExperiment(name string) bool {
	_, ok := lookup(name)
	return ok || name == "sweep" || name == "all"
}

// ExpandExperiment resolves the composite names: "sweep" → the six
// paper figures, "all" → every report experiment. Any other name
// expands to itself (including unknown names — RunExperiment is the
// validator).
func ExpandExperiment(name string) []string {
	switch name {
	case "all":
		return ExperimentNames()
	case "sweep":
		return append([]string(nil), sweepNames...)
	}
	return []string{name}
}

// RunExperiment executes one named report experiment and returns its
// formatted report — the exact text cmd/vmsim prints for the same
// flags. app parameterizes the app-scoped extension experiments
// (pressure, ctxswitch, deltasweep; empty selects "Word", the CLI
// default). Composite names are not accepted here; expand them first
// with ExpandExperiment and concatenate.
func RunExperiment(name string, opt Options, app string) (string, error) {
	e, ok := lookup(name)
	if !ok {
		return "", fmt.Errorf("unknown experiment %q", name)
	}
	if app == "" {
		app = "Word"
	}
	return e.run(opt, app)
}

// ResetRunCacheForTest clears the process-wide memoizations — runs,
// snapshots and interpreter profiles — so tests outside this package
// (the job-service store-dedupe e2e, the repo benchmark) can force
// disk-store reads or fresh simulations. Test hook only; never call it
// from production paths — concurrent sweeps rely on the memos'
// single-flight slots for exactly-once simulation.
func ResetRunCacheForTest() {
	runCache.reset()
	snapCache.reset()
	profCache.reset()
}
