package experiments

import (
	"fmt"

	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// Motivation experiments: quantitative versions of the paper's §1.1
// bullet list of situations where slow startup hurts a co-designed VM.

// ColdStartRow summarizes one machine's behaviour on the boot-like
// workload (§1.1: "OS boot-up or shut-down").
type ColdStartRow struct {
	Cycles     float64
	Instrs     uint64
	IPC        float64
	XlatePct   float64 // cycles spent translating
	VsRef      float64 // cycles relative to Ref
	Breakeven  float64 // 0 = never
	TraceRatio float64 // breakeven / ref trace cycles
}

// ColdStartReport compares all machines on the boot-like workload.
type ColdStartReport struct {
	Opt    Options
	Models []machine.Model
	Rows   map[machine.Model]ColdStartRow
}

// ColdStart runs the BootLike workload — a huge once-executed footprint
// with almost no hotspots — across the machine models. It reproduces the
// §1.1 claim that cold-code-dominated phases are where BBT overhead (and
// therefore the hardware assists) matter most.
func ColdStart(opt Options) (*ColdStartReport, error) {
	opt = opt.withDefaults()
	models := []machine.Model{machine.Ref, machine.VMSoft, machine.VMBE, machine.VMFE, machine.VMInterp}
	rep := &ColdStartReport{Opt: opt, Models: models, Rows: map[machine.Model]ColdStartRow{}}

	budget := opt.ShortInstrs
	results := make([]*vmm.Result, len(models))
	err := opt.forEachTask(len(models), func(i int) error {
		res, err := opt.runApp(opt.configFor(models[i]), workload.BootLike.Name, budget)
		if err != nil {
			return fmt.Errorf("%v: %w", models[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	ref := results[0]
	for i, m := range models {
		res := results[i]
		row := ColdStartRow{
			Cycles:   res.Cycles,
			Instrs:   res.Instrs,
			IPC:      res.IPC(),
			XlatePct: 100 * (res.Cat[vmm.CatBBTXlate] + res.Cat[vmm.CatSBTXlate]) / res.Cycles,
			VsRef:    res.Cycles / ref.Cycles,
		}
		if m != machine.Ref {
			if be, ok := metrics.Breakeven(ref.Samples, res.Samples); ok {
				row.Breakeven = be
				row.TraceRatio = be / ref.Cycles
			}
		}
		rep.Rows[m] = row
	}
	return rep, nil
}

// FormatColdStart renders the boot-like comparison.
func FormatColdStart(r *ColdStartReport) string {
	out := "Extension — OS-boot-like cold start (§1.1): huge once-run footprint\n"
	out += fmt.Sprintf("%-12s %12s %8s %10s %8s %12s\n",
		"model", "cycles", "IPC", "xlate%", "vs Ref", "breakeven")
	for _, m := range r.Models {
		row := r.Rows[m]
		be := "-"
		if row.Breakeven > 0 {
			be = fmt.Sprintf("%.3g", row.Breakeven)
		}
		out += fmt.Sprintf("%-12v %12.4g %8.3f %10.2f %8.2f %12s\n",
			m, row.Cycles, row.IPC, row.XlatePct, row.VsRef, be)
	}
	return out
}

// SwitchRow is one context-switch-period point.
type SwitchRow struct {
	PeriodInstrs uint64
	RefCycles    float64
	SoftCycles   float64
	FECycles     float64
	SoftSlowdown float64 // soft/ref
	FESlowdown   float64 // fe/ref
}

// SwitchReport is the §1.1 multitasking experiment result.
type SwitchReport struct {
	Opt  Options
	App  string
	Rows []SwitchRow
}

// switchPeriods are the context-switch sweep's rows, in instructions
// between switches; 0 never switches.
var switchPeriods = []uint64{0, 2_000_000, 500_000, 100_000}

// switchModels are the sweep's columns.
var switchModels = []machine.Model{machine.Ref, machine.VMSoft, machine.VMFE}

// switchConfig is model m switching every period instructions of a
// ShortInstrs-long run. A period the budget does not exceed never
// fires, so it is the plain run, under the plain run's key.
func (o Options) switchConfig(m machine.Model, period uint64) vmm.Config {
	cfg := o.configFor(m)
	if period < o.ShortInstrs {
		cfg.SwitchPeriod = period
	}
	return cfg
}

// ContextSwitch emulates frequent context switches among
// resource-competing tasks (§1.1): at each switch the processor caches
// and predictors are wiped (another task ran) while translations stay
// resident in concealed memory (vmm.Config.SwitchPeriod). With smaller
// periods, the conventional processor and the VM both re-warm their
// caches — but the VM's startup overhead has already been paid once,
// so its *relative* behaviour shows how the transient phases
// accumulate.
func ContextSwitch(opt Options, app string) (*SwitchReport, error) {
	opt = opt.withDefaults()
	nm := len(switchModels)
	cycles := make([]float64, len(switchPeriods)*nm)
	err := opt.forEachTask(len(cycles), func(i int) error {
		m, period := switchModels[i%nm], switchPeriods[i/nm]
		res, err := opt.runApp(opt.switchConfig(m, period), app, opt.ShortInstrs)
		if err != nil {
			return fmt.Errorf("%v, period %d: %w", m, period, err)
		}
		cycles[i] = res.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &SwitchReport{Opt: opt, App: app}
	for pi, period := range switchPeriods {
		ref, soft, fe := cycles[pi*nm], cycles[pi*nm+1], cycles[pi*nm+2]
		rep.Rows = append(rep.Rows, SwitchRow{
			PeriodInstrs: period,
			RefCycles:    ref,
			SoftCycles:   soft,
			FECycles:     fe,
			SoftSlowdown: soft / ref,
			FESlowdown:   fe / ref,
		})
	}
	return rep, nil
}

// FormatSwitch renders the context-switch sweep.
func FormatSwitch(r *SwitchReport) string {
	out := fmt.Sprintf("Extension — context-switch sensitivity (%s, §1.1 multitasking)\n", r.App)
	out += fmt.Sprintf("%14s %12s %12s %12s %10s %10s\n",
		"period instrs", "Ref cyc", "soft cyc", "fe cyc", "soft/ref", "fe/ref")
	for _, row := range r.Rows {
		p := "none"
		if row.PeriodInstrs > 0 {
			p = fmt.Sprintf("%d", row.PeriodInstrs)
		}
		out += fmt.Sprintf("%14s %12.4g %12.4g %12.4g %10.3f %10.3f\n",
			p, row.RefCycles, row.SoftCycles, row.FECycles, row.SoftSlowdown, row.FESlowdown)
	}
	return out
}
