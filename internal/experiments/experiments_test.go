package experiments

import (
	"strings"
	"testing"

	"codesignvm/internal/machine"
)

// tinyOpt keeps experiment smoke tests fast: three apps, heavily scaled.
func tinyOpt() Options {
	// The Eq. 2 hot threshold (8000) must stay real — scaling it breaks
	// the optimization economics — so smoke runs use traces long enough
	// for genuine hotspots to emerge at a moderately reduced footprint.
	return Options{
		Scale:       50,
		LongInstrs:  9_000_000,
		ShortInstrs: 2_500_000,
		Apps:        []string{"Word", "Winzip", "Project"},
	}
}

func TestFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Fig8(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Grid) == 0 {
		t.Fatal("empty grid")
	}
	for _, m := range rep.Models {
		c := rep.Curves[m]
		if len(c) != len(rep.Grid) {
			t.Fatalf("%v: curve/grid mismatch", m)
		}
		// Final normalized aggregate IPC must be positive and below ~1.3.
		last := c[len(c)-1]
		if last <= 0 || last > 1.4 {
			t.Errorf("%v final normalized IPC = %.3f", m, last)
		}
	}
	// The central orderings of Fig. 8 at an early point (~1/30 of the run).
	probe := len(rep.Grid) * 2 / 3
	ref := rep.Curves[machine.Ref][probe]
	soft := rep.Curves[machine.VMSoft][probe]
	be := rep.Curves[machine.VMBE][probe]
	fe := rep.Curves[machine.VMFE][probe]
	t.Logf("at %.3g cycles: ref=%.3f soft=%.3f be=%.3f fe=%.3f",
		rep.Grid[probe], ref, soft, be, fe)
	if !(soft < be) {
		t.Errorf("VM.soft (%.3f) should trail VM.be (%.3f) during startup", soft, be)
	}
	if fe < 0.9*ref {
		t.Errorf("VM.fe (%.3f) should track Ref (%.3f)", fe, ref)
	}
	// Steady-state: VMs exceed Ref.
	if rep.SteadyNorm[machine.VMFE] <= 1.0 {
		t.Errorf("VM.fe steady norm = %.3f, want > 1", rep.SteadyNorm[machine.VMFE])
	}
	txt := FormatStartup(rep, "fig8")
	if !strings.Contains(txt, "VM.fe") {
		t.Error("format output incomplete")
	}
}

func TestFig2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Fig2(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Interpretation must be far worse than BBT-based startup once the
	// BBT translations amortize (late-middle of the run).
	probe := len(rep.Grid) * 5 / 6
	if rep.Curves[machine.VMInterp][probe] >= rep.Curves[machine.VMSoft][probe] {
		t.Errorf("interp (%.3f) should trail soft (%.3f) early",
			rep.Curves[machine.VMInterp][probe], rep.Curves[machine.VMSoft][probe])
	}
}

func TestFig3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := tinyOpt()
	rep, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MBBT <= 0 || rep.MSBT <= 0 {
		t.Fatalf("degenerate profile: MBBT=%.0f MSBT=%.0f", rep.MBBT, rep.MSBT)
	}
	if rep.MSBT >= rep.MBBT/4 {
		t.Errorf("hotspot fraction too large: %.0f of %.0f", rep.MSBT, rep.MBBT)
	}
	txt := FormatFig3(rep)
	t.Log("\n" + txt)
	if !strings.Contains(txt, "MBBT") {
		t.Error("format output incomplete")
	}
}

func TestSec32Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Sec32Overhead(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Measured.BBTDominates() {
		t.Errorf("Eq. 1: BBT must dominate (measured %v)", rep.Measured)
	}
	t.Log("\n" + FormatOverhead(rep))
}

func TestFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Fig9(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatFig9(rep))
	// VM.fe should break even for the majority of apps.
	feOK := 0
	for _, row := range rep.Breakeven {
		if row[machine.VMFE] > 0 {
			feOK++
		}
	}
	if feOK == 0 {
		t.Error("VM.fe never broke even on any app")
	}
	// Breakeven ordering where both exist: fe ≤ soft.
	for app, row := range rep.Breakeven {
		if fe, soft := row[machine.VMFE], row[machine.VMSoft]; fe > 0 && soft > 0 && fe > soft*1.2 {
			t.Errorf("%s: fe breakeven %.3g much later than soft %.3g", app, fe, soft)
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Fig10(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatFig10(rep))
	if rep.Avg.BBTXlatePct <= 0 {
		t.Error("no BBT translation cycles recorded")
	}
	// The paper's headline: the assisted translator spends far less of
	// its time translating than the software one.
	if rep.Avg.BBTXlatePct >= rep.Avg.SoftBBTXlatePct {
		t.Errorf("VM.be BBT overhead (%.2f%%) should be below VM.soft (%.2f%%)",
			rep.Avg.BBTXlatePct, rep.Avg.SoftBBTXlatePct)
	}
	if rep.Avg.Coverage <= 0 {
		t.Error("no hotspot coverage")
	}
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Fig11(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatFig11(rep))
	last := len(rep.Grid) - 1
	if rep.Activity[machine.Ref][last] < 99 {
		t.Errorf("Ref decoder activity should be 100%%: %.1f", rep.Activity[machine.Ref][last])
	}
	if rep.Activity[machine.VMSoft][last] != 0 {
		t.Errorf("VM.soft has no decode hardware: %.1f", rep.Activity[machine.VMSoft][last])
	}
	// Activity decays over time for both assisted schemes.
	mid := len(rep.Grid) / 2
	for _, m := range []machine.Model{machine.VMBE, machine.VMFE} {
		if rep.Activity[m][last] >= rep.Activity[m][mid] {
			t.Errorf("%v activity did not decay: mid=%.1f last=%.1f",
				m, rep.Activity[m][mid], rep.Activity[m][last])
		}
	}
	// VM.be's assist is busy far less than VM.fe's frontend decoders.
	if rep.Activity[machine.VMBE][last] >= rep.Activity[machine.VMFE][last] {
		t.Errorf("be activity (%.1f) should be below fe (%.1f)",
			rep.Activity[machine.VMBE][last], rep.Activity[machine.VMFE][last])
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Ablation(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatAblation(rep))
	if rep.SteadyIPC["baseline"] <= rep.SteadyIPC["no-fusion"] {
		t.Errorf("fusion must help: baseline=%.3f no-fusion=%.3f",
			rep.SteadyIPC["baseline"], rep.SteadyIPC["no-fusion"])
	}
	if rep.FusedFrac["no-fusion"] != 0 {
		t.Errorf("no-fusion variant fused %.2f", rep.FusedFrac["no-fusion"])
	}
	if rep.FusedFrac["baseline"] < 0.2 {
		t.Errorf("fused fraction %.2f too low", rep.FusedFrac["baseline"])
	}
}

func TestTable1Smoke(t *testing.T) {
	rep, err := Table1(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatTable1(rep))
	if rep.Instructions < 2500 {
		t.Errorf("decoded only %d instructions", rep.Instructions)
	}
	if rep.AvgUopsPerX86 < 1 || rep.AvgUopsPerX86 > 3 {
		t.Errorf("µops per x86 = %.2f", rep.AvgUopsPerX86)
	}
	if rep.ComplexPct > 20 {
		t.Errorf("complex rate %.1f%% too high", rep.ComplexPct)
	}
}

func TestTable2Format(t *testing.T) {
	txt := FormatTable2()
	for _, want := range []string{"Ref", "VM.soft", "VM.be", "VM.fe", "dual-mode", "XLTx86", "8000"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestPersistentStartupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := tinyOpt()
	opt.Apps = []string{"Word"}
	rep, err := PersistentStartup(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatPersist(rep))
	row := rep.PerApp["Word"]
	if row.Translations == 0 {
		t.Fatal("no translations persisted")
	}
	if row.WarmCycles >= row.ColdCycles {
		t.Errorf("preloaded startup (%.4g) not faster than cold (%.4g)", row.WarmCycles, row.ColdCycles)
	}
	// Preloaded breakeven must not be later than cold breakeven (when
	// both exist).
	if row.WarmBreakeven > 0 && row.ColdBreakeven > 0 && row.WarmBreakeven > row.ColdBreakeven {
		t.Errorf("warm breakeven %.4g later than cold %.4g", row.WarmBreakeven, row.ColdBreakeven)
	}
}

func TestCodeCachePressureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := tinyOpt()
	rep, err := CodeCachePressure(opt, "Word", []uint32{1 << 10, 16 << 10, 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatPressure(rep))
	small := rep.Rows[0]
	big := rep.Rows[len(rep.Rows)-1]
	if small.BBTXlate <= big.BBTXlate {
		t.Errorf("tiny cache should force re-translations: %d vs %d", small.BBTXlate, big.BBTXlate)
	}
	if small.BBTFlushes == 0 {
		t.Error("tiny cache never flushed")
	}
	if small.IPC >= big.IPC {
		t.Errorf("tiny cache should cost performance: %.3f vs %.3f", small.IPC, big.IPC)
	}
}

func TestDumpTranslations(t *testing.T) {
	txt, err := DumpTranslations("Winzip", machine.VMSoft, 200, 300_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"translation @", "exit 0", "retires", "executed"} {
		if !strings.Contains(txt, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

func TestColdStartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := tinyOpt()
	rep, err := ColdStart(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatColdStart(rep))
	soft := rep.Rows[machine.VMSoft]
	fe := rep.Rows[machine.VMFE]
	ref := rep.Rows[machine.Ref]
	if soft.VsRef < 1.05 {
		t.Errorf("cold-dominated workload must hurt VM.soft: vsRef=%.2f", soft.VsRef)
	}
	if fe.VsRef > soft.VsRef {
		t.Errorf("VM.fe (%.2f) should beat VM.soft (%.2f) on boot-like code", fe.VsRef, soft.VsRef)
	}
	if fe.VsRef > 1.10 {
		t.Errorf("VM.fe should track Ref on cold code: vsRef=%.2f", fe.VsRef)
	}
	if ref.Instrs == 0 {
		t.Error("no work done")
	}
	// Translation share must dominate VM.soft's overhead here.
	if soft.XlatePct < 5 {
		t.Errorf("boot-like VM.soft xlate%% = %.1f, expected substantial", soft.XlatePct)
	}
}

// TestContextSwitchSmoke runs the sweep over a budget that no period
// divides: every switching run must still retire its budget — exactly
// what the model's plain run retires, the budget plus the last block —
// and frequent switches must cost cycles.
func TestContextSwitchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := tinyOpt()
	opt.ShortInstrs = 2_100_001
	rep, err := ContextSwitch(opt, "Word")
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatSwitch(rep))
	if len(rep.Rows) != len(switchPeriods) {
		t.Fatal("missing rows")
	}
	none, freq := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
	if freq.RefCycles <= none.RefCycles {
		t.Error("context switches should slow Ref down too (cold caches)")
	}
	if freq.SoftCycles <= none.SoftCycles {
		t.Error("context switches should slow VM.soft down")
	}
	for _, m := range switchModels {
		plain, err := opt.runApp(opt.configFor(m), "Word", opt.ShortInstrs)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Instrs < opt.ShortInstrs {
			t.Fatalf("%v: plain run retired %d of %d", m, plain.Instrs, opt.ShortInstrs)
		}
		for _, period := range switchPeriods[1:] {
			cfg := opt.switchConfig(m, period)
			if cfg.SwitchPeriod != period {
				t.Fatalf("%v: period %d does not switch over %d", m, period, opt.ShortInstrs)
			}
			res, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Instrs != plain.Instrs {
				t.Errorf("%v, period %d: retired %d instrs, the plain run %d", m, period, res.Instrs, plain.Instrs)
			}
		}
	}
}

func TestStagedComparisonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := tinyOpt()
	opt.Apps = []string{"Word"}
	rep, err := StagedComparison(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-startup ordering: interp < 3stage ≤ soft < ref. The paper's
	// point — BBT is cheap enough that interpretation stages don't pay
	// on x86 — shows as 3-stage trailing the 2-stage VM.
	probe := len(rep.Grid) * 3 / 4
	interp := rep.Curves[machine.VMInterp][probe]
	staged := rep.Curves[machine.VMStaged3][probe]
	soft := rep.Curves[machine.VMSoft][probe]
	t.Logf("at %.3g cycles: interp=%.3f 3stage=%.3f soft=%.3f ref=%.3f",
		rep.Grid[probe], interp, staged, soft, rep.Curves[machine.Ref][probe])
	if staged <= interp {
		t.Errorf("3-stage (%.3f) must recover far better than pure interpretation (%.3f)", staged, interp)
	}
	if rep.SteadyNorm[machine.VMStaged3] < 0.9*rep.SteadyNorm[machine.VMSoft] {
		t.Errorf("3-stage steady %.3f should approach 2-stage %.3f",
			rep.SteadyNorm[machine.VMStaged3], rep.SteadyNorm[machine.VMSoft])
	}
}

func TestDeltaBBTSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := tinyOpt()
	rep, err := DeltaBBTSweep(opt, "Norton", []float64{83, 20, 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatDelta(rep))
	if len(rep.Rows) != 3 {
		t.Fatal("rows missing")
	}
	// Cycles must be monotone in ΔBBT, with diminishing returns: the
	// 83→20 step saves more than the 20→1 step.
	c83, c20, c1 := rep.Rows[0].Cycles, rep.Rows[1].Cycles, rep.Rows[2].Cycles
	if !(c83 > c20 && c20 > c1) {
		t.Errorf("cycles not monotone: %v %v %v", c83, c20, c1)
	}
	if (c83 - c20) < (c20 - c1) {
		t.Errorf("no diminishing returns: step1=%.0f step2=%.0f", c83-c20, c20-c1)
	}
}
