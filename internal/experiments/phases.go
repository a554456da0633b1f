package experiments

import (
	"fmt"
	"strings"

	"codesignvm/internal/machine"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// Phases experiment: the startup transient decomposed by *where the
// cycles go*. Every arm is a VM.soft run with cycle attribution
// enabled; the figure reports, at each instruction milestone, the
// share of cumulative simulated cycles each attribution category has
// consumed — for the cold VM and for each warm-start restore policy
// (lazy/hybrid/eager, restoring from the cold arm's translation
// snapshot). It is the paper's startup story made quantitative: early
// milestones are interpreter/BBT-dominated, warm arms shift that mass
// into restore + SBT execution.

// DefaultAttribSpec is the attribution spec the phases figure uses
// when its options' observer has none: regions bucket the workload
// code segment (workload.CodeBase) at the default granularity, and
// milestones land at fixed fractions of the long-trace budget so the
// phase rows line up with the startup curves of the other figures.
func DefaultAttribSpec(longInstrs uint64) attrib.Spec {
	var ms []uint64
	for _, pct := range []uint64{1, 2, 5, 10, 25, 50, 100} {
		m := longInstrs * pct / 100
		if m == 0 || (len(ms) > 0 && m <= ms[len(ms)-1]) {
			continue
		}
		ms = append(ms, m)
	}
	return attrib.Spec{RegionBase: workload.CodeBase, Milestones: ms}
}

// phasesArms defines the figure's arms in display order. All are
// VM.soft; the warm arms restore from the cold arm's snapshot. Ref is
// excluded: the reference superscalar has no translation phases to
// attribute.
var phasesArms = []struct {
	name string
	mode vmm.WarmStart
}{
	{"cold", vmm.WarmOff},
	{"lazy", vmm.WarmLazy},
	{"hybrid", vmm.WarmHybrid},
	{"eager", vmm.WarmEager},
}

// PhasesCurves is the phases figure: per-arm attribution snapshots
// merged across the app suite.
type PhasesCurves struct {
	Opt  Options
	Spec attrib.Spec
	Arms []string
	// Merged[arm] is the suite-merged attribution snapshot of the arm
	// (apps merged in suite order, so the figure is deterministic).
	Merged map[string]*attrib.Snapshot

	perApp map[string]map[string]*vmm.Result
}

// Result returns the per-app raw result of one arm.
func (p *PhasesCurves) Result(app, arm string) *vmm.Result {
	return p.perApp[app][arm]
}

// PhasesFig runs the phase-attribution figure. Attribution is an
// input of this figure: when opt.Obs already has it enabled, that
// spec is used (and the runs share cache identity with the caller's
// sweep); otherwise the figure enables DefaultAttribSpec on the
// options' observer — creating a private one if opt.Obs is nil. Note
// that enabling attribution on a shared observer makes *subsequent*
// runs attribute too (and shifts their cache keys); sweeps order
// "phases" last for that reason.
func PhasesFig(opt Options) (*PhasesCurves, error) {
	opt = opt.withDefaults()
	if opt.Obs == nil {
		opt.Obs = obs.NewObserver(nil)
	}
	if !opt.Obs.AttribEnabled() {
		opt.Obs.EnableAttrib(DefaultAttribSpec(opt.LongInstrs))
	}
	out := &PhasesCurves{
		Opt:    opt,
		Spec:   opt.Obs.AttribSpec(),
		Merged: map[string]*attrib.Snapshot{},
		perApp: map[string]map[string]*vmm.Result{},
	}
	for _, arm := range phasesArms {
		out.Arms = append(out.Arms, arm.name)
	}
	cold := opt.configFor(machine.VMSoft)

	// The (app × arm) grid runs on the bounded pool, each task writing
	// its own flat slot; warm arms share one snapshot per app (the
	// snapshot cache single-flights the cold producer).
	na := len(phasesArms)
	flat := make([]*vmm.Result, len(opt.Apps)*na)
	err := opt.forEachTask(len(flat), func(i int) error {
		app, arm := opt.Apps[i/na], phasesArms[i%na]
		cfg := cold
		cfg.WarmStart = arm.mode
		var snapFn snapFunc
		if arm.mode != vmm.WarmOff {
			snapFn = opt.snapshotFor(cold, app, opt.LongInstrs)
		}
		res, err := opt.runAppWarm(cfg, app, opt.LongInstrs, snapFn)
		if err != nil {
			return fmt.Errorf("%s arm %s: %w", app, arm.name, err)
		}
		if res.Attrib == nil {
			return fmt.Errorf("%s arm %s: run carries no attribution snapshot", app, arm.name)
		}
		flat[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, app := range opt.Apps {
		results := make(map[string]*vmm.Result, na)
		for mi, arm := range phasesArms {
			results[arm.name] = flat[ai*na+mi]
		}
		out.perApp[app] = results
	}

	// Merge iterates opt.Apps in suite order (never the perApp map) so
	// floating-point accumulation is deterministic.
	for mi, arm := range phasesArms {
		snaps := make([]*attrib.Snapshot, 0, len(opt.Apps))
		for ai := range opt.Apps {
			snaps = append(snaps, flat[ai*na+mi].Attrib)
		}
		out.Merged[arm.name] = attrib.Merge(snaps...)
	}
	return out, nil
}

// phasesCols returns the categories shown as table columns: every
// category with a nonzero share in any arm, in taxonomy order, so all
// arms render the same columns.
func phasesCols(p *PhasesCurves) []attrib.Category {
	var cols []attrib.Category
	for c := attrib.Category(0); c < attrib.NumCategories; c++ {
		for _, arm := range p.Arms {
			if s := p.Merged[arm]; s != nil && s.Cat[c] != 0 {
				cols = append(cols, c)
				break
			}
		}
	}
	return cols
}

// FormatPhases renders the phases figure: one table per arm, one row
// per milestone (plus the end-of-run total), one column per active
// category, cells the category's share of cumulative cycles at that
// milestone.
func FormatPhases(p *PhasesCurves) string {
	cols := phasesCols(p)
	var b strings.Builder
	b.WriteString("Phases — startup cycle attribution: per-category share of cumulative cycles\n")
	fmt.Fprintf(&b, "spec: %s\n", p.Spec.Key())
	row := func(label string, cycles float64, cat *[attrib.NumCategories]float64) {
		fmt.Fprintf(&b, "%-12s%14.6g", label, cycles)
		for _, c := range cols {
			share := 0.0
			if cycles > 0 {
				share = cat[c] / cycles
			}
			fmt.Fprintf(&b, "%*.4f", len(c.String())+2, share)
		}
		b.WriteByte('\n')
	}
	for _, arm := range p.Arms {
		s := p.Merged[arm]
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "arm %s:\n", arm)
		fmt.Fprintf(&b, "%-12s%14s", "instrs", "cycles")
		for _, c := range cols {
			fmt.Fprintf(&b, "%*s", len(c.String())+2, c.String())
		}
		b.WriteByte('\n')
		for i := range s.Phases {
			ph := &s.Phases[i]
			row(fmt.Sprintf("%d", ph.Milestone), ph.Cycles, &ph.Cat)
		}
		row("total", s.TotalCycles, &s.Cat)
	}
	return b.String()
}
