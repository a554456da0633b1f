package experiments

import (
	"bytes"
	"sync"
	"testing"

	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// legacyPersistentStartup is PersistentStartup as it stood before it was
// folded onto the cached runs: three private simulations per app, the
// preloaded one restored through the eager stream loader
// (vmm.LoadTranslations).
func legacyPersistentStartup(opt Options) (*PersistReport, error) {
	opt = opt.withDefaults()
	rep := &PersistReport{Opt: opt, PerApp: map[string]PersistRow{}}
	var mu sync.Mutex
	err := opt.forEachApp(func(app string) error {
		prog, err := workload.App(app, opt.Scale)
		if err != nil {
			return err
		}
		cfg := opt.configFor(machine.VMSoft)
		ref, err := opt.runApp(opt.configFor(machine.Ref), app, opt.LongInstrs)
		if err != nil {
			return err
		}
		vmCold := vmm.New(cfg, prog.Memory(), prog.InitState())
		cold, err := vmCold.Run(opt.LongInstrs)
		if err != nil {
			return err
		}
		var saved bytes.Buffer
		if err := vmCold.SaveTranslations(&saved); err != nil {
			return err
		}
		vmWarm := vmm.New(cfg, prog.Memory(), prog.InitState())
		n, err := vmWarm.LoadTranslations(&saved)
		if err != nil {
			return err
		}
		warm, err := vmWarm.Run(opt.LongInstrs)
		if err != nil {
			return err
		}
		row := PersistRow{
			ColdCycles:   cold.Cycles,
			WarmCycles:   warm.Cycles,
			RefCycles:    ref.Cycles,
			Translations: n,
		}
		if be, ok := metrics.Breakeven(ref.Samples, cold.Samples); ok {
			row.ColdBreakeven = be
		}
		if be, ok := metrics.Breakeven(ref.Samples, warm.Samples); ok {
			row.WarmBreakeven = be
		}
		mu.Lock()
		rep.PerApp[app] = row
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// TestPersistFoldMatchesLegacy: the folded PersistentStartup (cold arm =
// the cached VM.soft run, preloaded arm = eager warm start at zero
// restore cost from the warm-start snapshot) must reproduce the private
// simulations it replaced row for row, every float to the last bit.
func TestPersistFoldMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	resetSnapCacheForTest()
	want, err := legacyPersistentStartup(detOpt())
	if err != nil {
		t.Fatal(err)
	}
	got, err := PersistentStartup(detOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerApp) != len(want.PerApp) || len(want.PerApp) != 3 {
		t.Fatalf("rows: got %d, legacy %d, want 3", len(got.PerApp), len(want.PerApp))
	}
	for app, w := range want.PerApp {
		if g := got.PerApp[app]; g != w {
			t.Errorf("%s:\n legacy %+v\n folded %+v", app, w, g)
		}
		if w.Translations == 0 || w.WarmCycles >= w.ColdCycles {
			t.Errorf("%s: legacy row does not exercise the preload: %+v", app, w)
		}
	}
	if g, w := FormatPersist(got), FormatPersist(want); g != w {
		t.Errorf("report differs\n--- legacy ---\n%s--- folded ---\n%s", w, g)
	}
}
