package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperHotThreshold(t *testing.T) {
	// ΔSBT ≈ 1200 x86 instructions and p = 1.15 give N = 8000.
	n := HotThreshold(1200, 1.15)
	if math.Abs(n-8000) > 1e-6 {
		t.Errorf("threshold = %v, want 8000 (1200/0.15)", n)
	}
	// An interpreter ~47x slower than translated code gives N ≈ 25.
	ni := HotThreshold(1200, 48)
	if ni < 20 || ni > 30 {
		t.Errorf("interp threshold = %v, want ≈ 25", ni)
	}
}

func TestHotThresholdEdge(t *testing.T) {
	if HotThreshold(1000, 1.0) != 0 || HotThreshold(1000, 0.5) != 0 {
		t.Error("non-positive speedup should give 0")
	}
}

// Property (Eq. 2): at N executions, the cost of optimizing and running
// optimized code equals the cost of not optimizing:
// N·tb = (N + ΔSBT)·(tb/p).
func TestBreakevenIdentityProperty(t *testing.T) {
	f := func(d, pRaw float64) bool {
		delta := math.Abs(math.Mod(d, 5000)) + 1
		p := 1.01 + math.Abs(math.Mod(pRaw, 3))
		n := HotThreshold(delta, p)
		const tb = 1.0
		lhs := n * tb
		rhs := (n + delta) * (tb / p)
		return math.Abs(lhs-rhs) < 1e-6*math.Max(lhs, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperOverheadNumbers(t *testing.T) {
	o := PaperOverhead()
	if bbt := o.BBTComponent(); math.Abs(bbt-15.75e6) > 1e3 {
		t.Errorf("BBT component = %v, want 15.75M", bbt)
	}
	if sbt := o.SBTComponent(); math.Abs(sbt-5.022e6) > 1e3 {
		t.Errorf("SBT component = %v, want 5.02M", sbt)
	}
	if !o.BBTDominates() {
		t.Error("paper's central observation: BBT must dominate")
	}
	if o.String() == "" {
		t.Error("string empty")
	}
}

func TestScenarioOrdering(t *testing.T) {
	p := ScenarioParams{
		Overhead:        PaperOverhead(),
		CyclesPerNative: 1,
		DiskLatency:     20e6, // 10 ms at 2 GHz
		ColdMissCycles:  2e6,
		SteadyIPC:       1.5,
		WorkInstrs:      100e6,
	}
	disk := EstimateCycles(DiskStartup, p)
	mem := EstimateCycles(MemoryStartup, p)
	warm := EstimateCycles(CodeCacheWarm, p)
	steady := EstimateCycles(SteadyState, p)
	if !(disk > mem && mem > warm && warm > steady) {
		t.Errorf("scenario ordering violated: %v %v %v %v", disk, mem, warm, steady)
	}
	// §3.1: the *relative* translation-overhead exposure is largest in
	// the memory-startup scenario (disk latency dilutes it).
	memExposure := (mem - warm) / warm
	diskExposure := (disk - (warm + p.DiskLatency)) / (warm + p.DiskLatency)
	if memExposure <= diskExposure {
		t.Errorf("translation exposure: mem %.3f should exceed disk %.3f", memExposure, diskExposure)
	}
}

func TestScenarioNames(t *testing.T) {
	for _, s := range []Scenario{DiskStartup, MemoryStartup, CodeCacheWarm, SteadyState} {
		if s.String() == "scenario?" {
			t.Errorf("scenario %d unnamed", s)
		}
	}
}
