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

// expNames lists every named report experiment in the CLI's canonical
// order ("all" runs them in this order). The two composites ("sweep",
// "all") and the interactive modes ("run", "dump") are not report
// experiments and live outside this table.
var expNames = []string{
	"table2", "table1", "fig3", "overhead", "threshold",
	"fig2", "fig8", "fig9", "fig10", "fig11",
	"ablation", "persist", "warmstart", "pressure",
	"coldstart", "ctxswitch", "staged", "deltasweep",
	// "phases" is last: it enables attribution on the shared observer,
	// which shifts the cache identity of every later run (see PhasesFig).
	"phases",
}

// sweepNames is the "sweep" composite: the paper's figures in one
// process, ordered so they share simulation results through the run
// cache (fig8/fig9/fig11 share long-trace runs, fig10's VM.soft run
// seeds the ablation-style short traces).
var sweepNames = []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11"}

// ExperimentNames returns the report experiments runnable by name, in
// canonical order (a copy; callers may sort or filter).
func ExperimentNames() []string {
	return append([]string(nil), expNames...)
}

// IsExperiment reports whether name is a runnable report experiment or
// one of the two composites ("sweep", "all").
func IsExperiment(name string) bool {
	if name == "sweep" || name == "all" {
		return true
	}
	for _, n := range expNames {
		if n == name {
			return true
		}
	}
	return false
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
	if app == "" {
		app = "Word"
	}
	switch name {
	case "fig2":
		rep, err := Fig2(opt)
		if err != nil {
			return "", err
		}
		return FormatStartup(rep, "Fig. 2 — startup: software staged VMs vs reference superscalar\n(normalized aggregate IPC, harmonic mean over benchmarks)"), nil
	case "fig3":
		rep, err := Fig3(opt)
		if err != nil {
			return "", err
		}
		return FormatFig3(rep), nil
	case "fig8":
		rep, err := Fig8(opt)
		if err != nil {
			return "", err
		}
		return FormatStartup(rep, "Fig. 8 — startup with hardware assists\n(normalized aggregate IPC, harmonic mean over benchmarks)"), nil
	case "fig9":
		rep, err := Fig9(opt)
		if err != nil {
			return "", err
		}
		return FormatFig9(rep), nil
	case "fig10":
		rep, err := Fig10(opt)
		if err != nil {
			return "", err
		}
		return FormatFig10(rep), nil
	case "fig11":
		rep, err := Fig11(opt)
		if err != nil {
			return "", err
		}
		return FormatFig11(rep), nil
	case "overhead":
		rep, err := Sec32Overhead(opt)
		if err != nil {
			return "", err
		}
		return FormatOverhead(rep), nil
	case "threshold":
		return fmt.Sprintf("Eq. 2 — hot threshold N = ΔSBT/(p−1)\nBBT-based (ΔSBT=1200, p=1.15):  N = %.0f\ninterpreted (ΔSBT=1200, p=48):  N = %.0f\n",
			model.HotThreshold(1200, 1.15), model.HotThreshold(1200, 48)), nil
	case "ablation":
		rep, err := Ablation(opt)
		if err != nil {
			return "", err
		}
		return FormatAblation(rep), nil
	case "table1":
		rep, err := Table1(20000, 2006)
		if err != nil {
			return "", err
		}
		return FormatTable1(rep), nil
	case "table2":
		return FormatTable2(), nil
	case "persist":
		rep, err := PersistentStartup(opt)
		if err != nil {
			return "", err
		}
		return FormatPersist(rep), nil
	case "warmstart":
		rep, err := WarmStartFig(opt)
		if err != nil {
			return "", err
		}
		return FormatWarmStart(rep), nil
	case "pressure":
		rep, err := CodeCachePressure(opt, app, nil)
		if err != nil {
			return "", err
		}
		return FormatPressure(rep), nil
	case "coldstart":
		rep, err := ColdStart(opt)
		if err != nil {
			return "", err
		}
		return FormatColdStart(rep), nil
	case "ctxswitch":
		rep, err := ContextSwitch(opt, app, nil)
		if err != nil {
			return "", err
		}
		return FormatSwitch(rep), nil
	case "staged":
		rep, err := StagedComparison(opt)
		if err != nil {
			return "", err
		}
		return FormatStartup(rep, "Extension — staged-translation strategies\n(normalized aggregate IPC)"), nil
	case "deltasweep":
		rep, err := DeltaBBTSweep(opt, app, nil)
		if err != nil {
			return "", err
		}
		return FormatDelta(rep), nil
	case "phases":
		rep, err := PhasesFig(opt)
		if err != nil {
			return "", err
		}
		return FormatPhases(rep), nil
	}
	return "", fmt.Errorf("unknown experiment %q", name)
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
