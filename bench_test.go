// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (DESIGN.md §4 maps IDs to harnesses), through the
// facade where it returns the report's data and through
// internal/experiments where only RunExperiment's text does. Each
// benchmark regenerates its experiment at a reduced scale and reports
// the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set end to end. EXPERIMENTS.md records
// full-scale paper-vs-measured comparisons.
package codesignvm_test

import (
	"bytes"
	"testing"

	codesignvm "codesignvm"
	"codesignvm/internal/experiments"
)

// benchOpt is the common benchmark scale: three representative apps
// (including Project, the paper's outlier) at 1/100 footprint with
// 500M-equivalent→9M-instruction traces.
func benchOpt() codesignvm.Options {
	return codesignvm.Options{
		Scale:       100,
		LongInstrs:  9_000_000,
		ShortInstrs: 3_000_000,
		Apps:        []string{"Word", "Winzip", "Project"},
		Sequential:  true,
		// Every iteration must simulate; cache hits would turn ns/op
		// into a measurement of the result cache.
		FreshRuns: true,
	}
}

// BenchmarkFig2StartupSoftware regenerates Figure 2: startup of the
// software-only staged VMs (BBT+SBT, Interp+SBT) against the reference
// superscalar. Reported metrics are the normalized aggregate IPC of each
// scheme at the end of the traces.
func BenchmarkFig2StartupSoftware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := codesignvm.Figure2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last := len(rep.Grid) - 1
		b.ReportMetric(rep.Curves[codesignvm.Ref][last], "ref-final-normIPC")
		b.ReportMetric(rep.Curves[codesignvm.VMSoft][last], "soft-final-normIPC")
		b.ReportMetric(rep.Curves[codesignvm.VMInterp][last], "interp-final-normIPC")
	}
}

// BenchmarkFig3FrequencyProfile regenerates Figure 3: the execution
// frequency profile and the MBBT/MSBT statistics feeding Eq. 1.
func BenchmarkFig3FrequencyProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MBBT, "MBBT-static-instrs")
		b.ReportMetric(rep.MSBT, "MSBT-hot-instrs")
		b.ReportMetric(100*rep.MSBT/rep.MBBT, "hot-static-%")
	}
}

// BenchmarkSec32OverheadModel evaluates Eq. 1 on measured workload
// statistics: the BBT and SBT components of translation overhead (the
// paper's 15.75M vs 5.02M native instructions at full scale).
func BenchmarkSec32OverheadModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Sec32Overhead(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Measured.BBTComponent()/1e6, "BBT-Minstrs")
		b.ReportMetric(rep.Measured.SBTComponent()/1e6, "SBT-Minstrs")
	}
}

// BenchmarkTable1XLTx86 exercises the XLTx86 backend functional unit
// (Table 1) over a randomized instruction stream and reports its CSR
// statistics: µop bytes, complex-fallback rate.
func BenchmarkTable1XLTx86(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table1(20000, 2006)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.AvgUopBytes, "uop-bytes/x86")
		b.ReportMetric(rep.ComplexPct, "Flag_cmplx-%")
		b.ReportMetric(rep.AvgUopsPerX86, "uops/x86")
	}
}

// BenchmarkFig8StartupAssists regenerates Figure 8: startup with the
// hardware assists. Reports the mid-trace normalized IPC of each scheme
// (the visual separation of the figure) and the steady-state VM gain.
func BenchmarkFig8StartupAssists(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := codesignvm.Figure8(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		mid := len(rep.Grid) * 3 / 4
		b.ReportMetric(rep.Curves[codesignvm.Ref][mid], "ref-mid-normIPC")
		b.ReportMetric(rep.Curves[codesignvm.VMSoft][mid], "soft-mid-normIPC")
		b.ReportMetric(rep.Curves[codesignvm.VMBE][mid], "be-mid-normIPC")
		b.ReportMetric(rep.Curves[codesignvm.VMFE][mid], "fe-mid-normIPC")
		b.ReportMetric(100*(rep.SteadyNorm[codesignvm.VMFE]-1), "steady-gain-%")
	}
}

// BenchmarkFig9Breakeven regenerates Figure 9: per-benchmark breakeven
// points. Reports how many (app, scheme) pairs broke even and the
// earliest VM.fe breakeven.
func BenchmarkFig9Breakeven(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig9(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		broke := 0.0
		feBest := 0.0
		for _, row := range rep.Breakeven {
			for _, be := range row {
				if be > 0 {
					broke++
				}
			}
			if fe := row[codesignvm.VMFE]; fe > 0 && (feBest == 0 || fe < feBest) {
				feBest = fe
			}
		}
		b.ReportMetric(broke, "pairs-broke-even")
		b.ReportMetric(feBest, "fe-earliest-cycles")
	}
}

// BenchmarkFig10BBTOverhead regenerates Figure 10: the VM.be cycle
// breakdown. Reports the paper's headline percentages (BBT translation
// overhead under VM.be vs VM.soft, BBT-emulation share, coverage).
func BenchmarkFig10BBTOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig10(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Avg.BBTXlatePct, "be-bbt-xlate-%")
		b.ReportMetric(rep.Avg.SoftBBTXlatePct, "soft-bbt-xlate-%")
		b.ReportMetric(rep.Avg.BBTEmuPct, "bbt-emu-%")
		b.ReportMetric(rep.Avg.Coverage, "sbt-coverage-%")
		b.ReportMetric(rep.Avg.CyclesPerXlatedInst, "cycles/xlated-inst")
	}
}

// BenchmarkFig11DecoderActivity regenerates Figure 11: aggregate
// activity of the x86 decode hardware. Reports the final activity of
// each configuration (Ref stays at 100%, VM.be decays to ~0).
func BenchmarkFig11DecoderActivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig11(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last := len(rep.Grid) - 1
		b.ReportMetric(rep.Activity[codesignvm.Ref][last], "ref-activity-%")
		b.ReportMetric(rep.Activity[codesignvm.VMBE][last], "be-activity-%")
		b.ReportMetric(rep.Activity[codesignvm.VMFE][last], "fe-activity-%")
	}
}

// BenchmarkAblationOptimizer quantifies the SBT design choices
// (DESIGN.md §5): macro-op fusion and the optional cleanup passes.
func BenchmarkAblationOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Ablation(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		base := rep.SteadyIPC["baseline"]
		b.ReportMetric(100*(base/rep.SteadyIPC["no-fusion"]-1), "fusion-gain-%")
		b.ReportMetric(100*rep.FusedFrac["baseline"], "fused-uops-%")
	}
}

// BenchmarkSimulationThroughput measures raw simulator speed (the
// substitution that makes full sweeps feasible; DESIGN.md §5).
func BenchmarkSimulationThroughput(b *testing.B) {
	prog, err := codesignvm.LoadWorkload("Word", 100)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 2_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := codesignvm.Run(codesignvm.VMBE, prog, budget)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instrs), "instrs/op")
	}
}

// BenchmarkWarmSweep measures one full warm-start run: a fresh
// VM.soft VM that restores lazily from a pre-built translation snapshot
// (built once, outside the timer) and executes a 9M-instruction Word
// trace.
func BenchmarkWarmSweep(b *testing.B) {
	prog, err := codesignvm.LoadWorkload("Word", 100)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 9_000_000
	cfg := codesignvm.DefaultConfig(codesignvm.VMSoft)
	vm := codesignvm.NewConfiguredVM(cfg, prog)
	if _, err := vm.Run(budget); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vm.SaveTranslations(&buf); err != nil {
		b.Fatal(err)
	}
	snap, err := codesignvm.ParseSnapshot(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	cfg.WarmStart = codesignvm.WarmLazy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := codesignvm.RunConfigWarm(cfg, prog, budget, nil, snap)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cycles, "sim-cycles")
		b.ReportMetric(float64(res.RestoredTranslations), "restored")
		b.ReportMetric(float64(res.BBTTranslations), "bbt-xlations")
	}
}

// BenchmarkTranslationLatency measures the cost of the translators
// themselves (host-side): basic-block translation and superblock
// formation+optimization per call.
func BenchmarkTranslationLatency(b *testing.B) {
	prog, err := codesignvm.LoadWorkload("Excel", 100)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bbt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Cold VM: first dispatch translates.
			vm := codesignvm.NewVM(codesignvm.VMSoft, prog)
			if _, err := vm.Run(1000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm := codesignvm.NewVM(codesignvm.VMInterp, prog)
			if _, err := vm.Run(1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
