package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Distributed-sweep work units. A Unit is one schedulable cell of an
// experiment's (app × model × scale) grid — fine enough that N worker
// processes can split a sweep, coarse enough that each unit amortizes
// its process's warm-up over a whole model column. Workers run units
// through RunUnit, which restricts the experiment to the unit's app
// and simulates through the shared run store, so the store fills with
// exactly the per-(config, app, budget) records the merging process's
// full-grid run will look up: the merged report is byte-identical to
// the single-process sweep by construction, because it IS the
// single-process sweep — served entirely from store hits.
//
// Units coordinate through the store's existing single-flight lock
// protocol (store.go): a worker claims <unitKey>.lock, runs the unit,
// publishes a <unitKey>.unit done marker, and releases. A worker that
// dies mid-unit leaves a lock whose heartbeat goes stale; any idle
// worker steals it through the normal arbitration and re-runs the
// unit (the runs inside are individually single-flighted and
// idempotent, so re-running a half-finished unit only redoes the
// missing cells). The coordinator additionally reaps a dead child's
// locks eagerly by pid (ReapDeadLocks), so requeue latency is bounded
// by process-exit detection, not the lockStale window.

// Unit is one work unit of a distributed sweep: an experiment name
// plus the app it is restricted to. App is empty for experiments whose
// grid does not iterate the benchmark suite (coldstart runs the fixed
// BootLike workload).
type Unit struct {
	Exp string
	App string
}

func (u Unit) String() string {
	if u.App == "" {
		return u.Exp
	}
	return u.Exp + "/" + u.App
}

// unitClass classifies how an experiment's grid decomposes into units.
type unitClass int

const (
	unitPerApp    unitClass = iota // grid iterates Options.Apps: one unit per app
	unitAppParam                   // app-scoped extension (RunExperiment's app argument)
	unitSingleton                  // simulates, but on a fixed workload set
	unitNoSim                      // analytic or static: nothing to distribute
)

// unitClasses maps every report experiment to its decomposition. An
// experiment missing from this table (a future addition) defaults to
// unitSingleton — correct (the whole experiment becomes one unit) if
// not maximally parallel, so forgetting to classify degrades gracefully.
var unitClasses = map[string]unitClass{
	"fig2": unitPerApp, "fig3": unitPerApp, "fig8": unitPerApp,
	"fig9": unitPerApp, "fig10": unitPerApp, "fig11": unitPerApp,
	"overhead": unitPerApp, "ablation": unitPerApp, "persist": unitPerApp,
	"warmstart": unitPerApp, "staged": unitPerApp, "phases": unitPerApp,
	"pressure": unitAppParam, "ctxswitch": unitAppParam, "deltasweep": unitAppParam,
	"coldstart": unitSingleton,
	"table1":    unitNoSim, "table2": unitNoSim, "threshold": unitNoSim,
}

// ExpandUnits expands an experiment name (composites included) into
// the work units a distributed sweep schedules. app parameterizes the
// app-scoped extension experiments exactly as RunExperiment does
// (empty selects the CLI default "Word"). Experiments with nothing to
// simulate expand to no units: the merging process computes them
// directly. The unit order is deterministic — shard assignment and the
// report both depend on it.
func ExpandUnits(name string, opt Options, app string) []Unit {
	opt = opt.withDefaults()
	if app == "" {
		app = "Word"
	}
	var units []Unit
	for _, exp := range ExpandExperiment(name) {
		class, known := unitClasses[exp]
		if !known {
			class = unitSingleton
		}
		switch class {
		case unitPerApp:
			for _, a := range opt.Apps {
				units = append(units, Unit{Exp: exp, App: a})
			}
		case unitAppParam:
			units = append(units, Unit{Exp: exp, App: app})
		case unitSingleton:
			units = append(units, Unit{Exp: exp})
		case unitNoSim:
			// nothing to distribute
		}
	}
	return units
}

// unitKey derives the store key of a unit's done marker and claim
// lock. The "u" prefix (plus 31 hex digits, matching the 32-character
// run-key length) keeps unit keys visually and lexically distinct from
// run-record content hashes. Everything that changes which runs a unit
// performs participates: the schema version, the experiment, the app,
// and the budget-shaping options.
func unitKey(opt Options, u Unit) string {
	opt = opt.withDefaults()
	return "u" + hashKey("unit v%d\n%s\n%s\n%d\n%d\n%d\n%d\n",
		runSchema, u.Exp, u.App, opt.Scale, opt.LongInstrs, opt.ShortInstrs, opt.HotThreshold)[:31]
}

// unitPath is the done-marker path of a unit in the options' store.
func (s *runStore) unitPath(key string) string { return s.path(key, ".unit") }

// UnitDone reports whether a unit's done marker is present in the
// options' store. Requires Options.Store.
func UnitDone(opt Options, u Unit) bool {
	s := opt.store()
	if s == nil {
		return false
	}
	_, err := s.fs.Stat(s.unitPath(unitKey(opt, u)))
	return err == nil
}

// AcquireUnit claims a unit through the store's single-flight lock
// protocol. It returns done=true when another worker published the
// done marker while we waited (nothing to do, release already
// handled); otherwise the caller owns the claim, must run the unit,
// and must call release when finished (after FinishUnit on success).
// err is non-nil only on context cancellation. Requires Options.Store.
func AcquireUnit(opt Options, u Unit) (release func(), done bool, err error) {
	s := opt.store()
	if s == nil {
		return nil, false, fmt.Errorf("AcquireUnit: no store configured")
	}
	key := unitKey(opt, u)
	rel, won, err := s.acquire(key, s.unitPath(key))
	if err != nil {
		return nil, false, err
	}
	if !won {
		return func() {}, true, nil
	}
	// Double-check under the lock: the marker may have been published
	// between our miss and winning a just-freed lock.
	if _, serr := s.fs.Stat(s.unitPath(key)); serr == nil {
		rel()
		return func() {}, true, nil
	}
	return rel, false, nil
}

// FinishUnit publishes a unit's done marker (atomically, temp+rename
// like every store write). Call it before releasing the claim.
func FinishUnit(opt Options, u Unit) error {
	s := opt.store()
	if s == nil {
		return fmt.Errorf("FinishUnit: no store configured")
	}
	key := unitKey(opt, u)
	return s.publish(key, s.unitPath(key), []byte("unit "+u.String()+"\n"))
}

// RunUnit executes one work unit: the unit's experiment restricted to
// the unit's app, simulating through opt's store so the merging
// process finds every record. The report text is a byproduct (workers
// discard it); the store side effects are the product.
func RunUnit(u Unit, opt Options) error {
	runOpt := opt
	if u.App != "" {
		if class := unitClasses[u.Exp]; class == unitPerApp {
			runOpt.Apps = []string{u.App}
		}
	}
	_, err := RunExperiment(u.Exp, runOpt, u.App)
	return err
}

// ReapDeadLocks removes every lock file in dir whose token names the
// given (dead) pid, returning how many were removed. The coordinator
// calls it after reaping a worker process, so a SIGKILLed worker's
// claims requeue immediately instead of waiting out the lockStale
// window. Only the coordinator may call it, and only for a pid it has
// Wait()ed on: the token's pid is meaningless for a live process.
func ReapDeadLocks(dir string, pid int) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	reaped := 0
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".lock") || strings.Contains(name, ".steal.") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var tokPid, seq int
		var t int64
		if n, _ := fmt.Sscanf(string(data), "pid %d seq %d t %d", &tokPid, &seq, &t); n != 3 {
			continue
		}
		if tokPid == pid && os.Remove(path) == nil {
			reaped++
		}
	}
	return reaped
}
