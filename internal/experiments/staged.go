package experiments

import (
	"fmt"

	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
)

// Staged-translation strategy studies (future-work extensions following
// the paper's §1.2 discussion of Transmeta's multi-stage translation and
// §6's suggestion that adaptive strategies generalize).

// StagedComparison runs the emulation-staging spectrum — pure
// interpretation+SBT, three-stage interp→BBT→SBT, and two-stage BBT+SBT
// — against the reference superscalar.
func StagedComparison(opt Options) (*StartupCurves, error) {
	return runStartup(opt, []machine.Model{
		machine.Ref, machine.VMInterp, machine.VMStaged3, machine.VMSoft,
	})
}

// DeltaRow is one point of the ΔBBT sensitivity sweep.
type DeltaRow struct {
	DeltaBBT  float64 // cycles per translated instruction
	Cycles    float64
	Breakeven float64 // vs Ref; 0 = never within trace
	XlatePct  float64
}

// DeltaReport is the ΔBBT sweep result.
type DeltaReport struct {
	Opt       Options
	App       string
	RefCycles float64
	Rows      []DeltaRow
}

// DeltaBBTSweep varies the per-instruction BBT translation cost from the
// software value (83) through the XLTx86-assisted value (20) down to
// near-free, quantifying how much of the startup problem each level of
// hardware assistance removes — and where diminishing returns begin
// (the dual-mode decoder's "zero" is the limit).
func DeltaBBTSweep(opt Options, app string, deltas []float64) (*DeltaReport, error) {
	opt = opt.withDefaults()
	if len(deltas) == 0 {
		deltas = []float64{166, 83, 40, 20, 10, 5, 1}
	}
	ref, err := opt.runApp(opt.configFor(machine.Ref), app, opt.LongInstrs)
	if err != nil {
		return nil, err
	}
	rep := &DeltaReport{Opt: opt, App: app, RefCycles: ref.Cycles}
	rep.Rows = make([]DeltaRow, len(deltas))
	err = opt.forEachTask(len(deltas), func(i int) error {
		cfg := opt.configFor(machine.VMSoft)
		cfg.BBTCyclesPerInst = deltas[i]
		res, err := opt.runApp(cfg, app, opt.LongInstrs)
		if err != nil {
			return err
		}
		row := DeltaRow{
			DeltaBBT: deltas[i],
			Cycles:   res.Cycles,
			XlatePct: 100 * res.Cat[vmm.CatBBTXlate] / res.Cycles,
		}
		if be, ok := metrics.Breakeven(ref.Samples, res.Samples); ok {
			row.Breakeven = be
		}
		rep.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// FormatDelta renders the ΔBBT sweep.
func FormatDelta(r *DeltaReport) string {
	out := fmt.Sprintf("Extension — ΔBBT sensitivity (%s); Ref trace = %.4g cycles\n", r.App, r.RefCycles)
	out += fmt.Sprintf("%10s %12s %10s %14s\n", "ΔBBT cyc", "cycles", "bbt-xl%", "breakeven")
	for _, row := range r.Rows {
		be := "-"
		if row.Breakeven > 0 {
			be = fmt.Sprintf("%.3g", row.Breakeven)
		}
		out += fmt.Sprintf("%10.0f %12.4g %10.2f %14s\n", row.DeltaBBT, row.Cycles, row.XlatePct, be)
	}
	return out
}
