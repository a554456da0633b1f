package experiments

import (
	"fmt"
	"sort"

	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
)

// Extension experiments beyond the paper's evaluation section, following
// its motivation (§1.1) and related work (§1.2):
//
//   - PersistentStartup: FX!32-style translate-once/reuse-later — how
//     much of the startup transient disappears when a previous run's
//     translations are preloaded;
//   - CodeCachePressure: the multitasking-server concern — a limited
//     code cache forces flushes and hotspot re-translations.

// PersistRow is one benchmark's persistent-startup comparison.
type PersistRow struct {
	ColdCycles   float64 // VM.soft, empty code caches
	WarmCycles   float64 // VM.soft, preloaded translations
	RefCycles    float64 // conventional superscalar
	Translations int     // translations restored
	// Breakeven vs Ref, cold and preloaded (0 = never in trace).
	ColdBreakeven float64
	WarmBreakeven float64
}

// PersistReport is the persistent-translation experiment result.
type PersistReport struct {
	Opt    Options
	PerApp map[string]PersistRow
}

// PersistentStartup measures startup with and without preloaded
// translations (the FX!32 strategy of §1.2 applied to the co-designed
// VM). Its three arms are cached runs like any figure's: the cold arm
// is Fig. 2's VM.soft run, and the preloaded arm is the eager warm start
// (warmstart.go) with restoring made free, restored from the snapshot
// the warm-start figure builds for the same app — FX!32's translations
// are simply there when the program starts.
func PersistentStartup(opt Options) (*PersistReport, error) {
	opt = opt.withDefaults()
	rep := &PersistReport{Opt: opt, PerApp: map[string]PersistRow{}}
	cold := opt.configFor(machine.VMSoft)
	preloaded := cold
	preloaded.WarmStart = vmm.WarmEager
	preloaded.RestoreCyclesPerInst, preloaded.RestoreFaultCycles = 0, 0
	arms := []vmm.Config{opt.configFor(machine.Ref), cold, preloaded}
	na := len(arms)
	flat := make([]*vmm.Result, len(opt.Apps)*na)
	err := opt.forEachTask(len(flat), func(i int) error {
		app, cfg := opt.Apps[i/na], arms[i%na]
		res, err := opt.runAppWarm(cfg, app, opt.LongInstrs, opt.snapshotFor(cold, app, opt.LongInstrs))
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
		flat[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, app := range opt.Apps {
		ref, cold, warm := flat[ai*na], flat[ai*na+1], flat[ai*na+2]
		row := PersistRow{
			ColdCycles:   cold.Cycles,
			WarmCycles:   warm.Cycles,
			RefCycles:    ref.Cycles,
			Translations: int(warm.RestoredTranslations),
		}
		if be, ok := metrics.Breakeven(ref.Samples, cold.Samples); ok {
			row.ColdBreakeven = be
		}
		if be, ok := metrics.Breakeven(ref.Samples, warm.Samples); ok {
			row.WarmBreakeven = be
		}
		rep.PerApp[app] = row
	}
	return rep, nil
}

// FormatPersist renders the persistent-startup table.
func FormatPersist(r *PersistReport) string {
	out := "Extension — persistent translations (FX!32-style reuse)\n"
	out += fmt.Sprintf("%-12s %12s %12s %12s %8s %12s %12s\n",
		"app", "cold cyc", "warm cyc", "ref cyc", "xlations", "cold-BE", "warm-BE")
	for _, app := range sortedApps(r.Opt.Apps) {
		row, ok := r.PerApp[app]
		if !ok {
			continue
		}
		be := func(v float64) string {
			if v <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.3g", v)
		}
		out += fmt.Sprintf("%-12s %12.4g %12.4g %12.4g %8d %12s %12s\n",
			app, row.ColdCycles, row.WarmCycles, row.RefCycles,
			row.Translations, be(row.ColdBreakeven), be(row.WarmBreakeven))
	}
	return out
}

// PressureRow is one code-cache-size point of the pressure sweep.
type PressureRow struct {
	CacheBytes uint32 // capacity of each code cache (BBT and SBT)
	Cycles     float64
	IPC        float64
	BBTFlushes uint32
	SBTFlushes uint32
	BBTXlate   uint64 // block translations (re-translations included)
	SBTXlate   uint64 // superblock translations (re-translations included)
	Coverage   float64
}

// PressureReport is the code-cache pressure sweep result.
type PressureReport struct {
	Opt  Options
	App  string
	Rows []PressureRow
}

// CodeCachePressure sweeps the code-cache capacities (BBT and SBT) on
// one benchmark, quantifying §1.1's multitasking concern: a limited code
// cache causes flushes and re-translations that prolong the startup
// transient indefinitely.
func CodeCachePressure(opt Options, app string, sizes []uint32) (*PressureReport, error) {
	opt = opt.withDefaults()
	if len(sizes) == 0 {
		sizes = []uint32{1 << 10, 4 << 10, 16 << 10, 64 << 10, 4 << 20}
	}
	rep := &PressureReport{Opt: opt, App: app, Rows: make([]PressureRow, len(sizes))}
	err := opt.forEachTask(len(sizes), func(i int) error {
		cfg := opt.configFor(machine.VMSoft)
		cfg.BBTCacheSize, cfg.SBTCacheSize = sizes[i], sizes[i]
		res, err := opt.runApp(cfg, app, opt.LongInstrs)
		if err != nil {
			return fmt.Errorf("size %d: %w", sizes[i], err)
		}
		rep.Rows[i] = PressureRow{
			CacheBytes: sizes[i],
			Cycles:     res.Cycles,
			IPC:        res.IPC(),
			BBTFlushes: res.BBTFlushes,
			SBTFlushes: res.SBTFlushes,
			BBTXlate:   res.BBTTranslations,
			SBTXlate:   res.SBTTranslations,
			Coverage:   res.HotspotCoverage(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].CacheBytes < rep.Rows[j].CacheBytes })
	return rep, nil
}

// FormatPressure renders the sweep.
func FormatPressure(r *PressureReport) string {
	out := fmt.Sprintf("Extension — code-cache pressure sweep (%s)\n", r.App)
	out += fmt.Sprintf("%12s %12s %8s %9s %9s %10s %10s %10s\n",
		"cache bytes", "cycles", "IPC", "bbt-xl", "sbt-xl", "bbt-flush", "sbt-flush", "coverage")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%12d %12.4g %8.3f %9d %9d %10d %10d %9.1f%%\n",
			row.CacheBytes, row.Cycles, row.IPC, row.BBTXlate, row.SBTXlate,
			row.BBTFlushes, row.SBTFlushes, 100*row.Coverage)
	}
	return out
}
