package codesignvm_test

import (
	"testing"

	codesignvm "codesignvm"
)

func TestPublicModels(t *testing.T) {
	for _, m := range []codesignvm.Model{codesignvm.Ref, codesignvm.VMSoft, codesignvm.VMBE,
		codesignvm.VMFE, codesignvm.VMInterp, codesignvm.VMStaged3} {
		back, err := codesignvm.ModelByName(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v failed: %v", m, err)
		}
	}
	if _, err := codesignvm.ModelByName("nope"); err == nil {
		t.Error("bad name accepted")
	}
}

func TestPublicWorkloads(t *testing.T) {
	p, err := codesignvm.WorkloadParameters("Project")
	if err != nil {
		t.Fatal(err)
	}
	if p.Fusability >= 0.5 {
		t.Errorf("Project must be the low-fusability outlier: %v", p.Fusability)
	}
}

func TestPublicRunEndToEnd(t *testing.T) {
	prog, err := codesignvm.LoadWorkload("Norton", 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := codesignvm.Run(codesignvm.VMSoft, prog, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs < 300_000 {
		t.Errorf("retired %d", res.Instrs)
	}
	if res.IPC() <= 0 || res.IPC() > 3 {
		t.Errorf("IPC %f implausible", res.IPC())
	}
	if len(res.Samples) == 0 {
		t.Error("no samples")
	}
}

func TestPublicConfigOverride(t *testing.T) {
	cfg := codesignvm.DefaultConfig(codesignvm.VMBE)
	if cfg.BBTCyclesPerInst != 20 {
		t.Errorf("VM.be ΔBBT = %v, want 20", cfg.BBTCyclesPerInst)
	}
	cfg = codesignvm.DefaultConfig(codesignvm.VMSoft)
	if cfg.BBTCyclesPerInst != 83 {
		t.Errorf("VM.soft ΔBBT = %v, want 83", cfg.BBTCyclesPerInst)
	}
	if cfg.HotThreshold != 8000 {
		t.Errorf("threshold = %d", cfg.HotThreshold)
	}
}

func TestPublicHotThreshold(t *testing.T) {
	if n := codesignvm.HotThreshold(1200, 1.15); n < 7999 || n > 8001 {
		t.Errorf("Eq. 2 = %v", n)
	}
}

func TestPublicScenarios(t *testing.T) {
	p := codesignvm.ScenarioParams{
		Overhead:        codesignvm.PaperOverhead(),
		CyclesPerNative: 1,
		DiskLatency:     1e6,
		ColdMissCycles:  1e5,
		SteadyIPC:       1.5,
		WorkInstrs:      1e7,
	}
	mem := codesignvm.EstimateScenarioCycles(codesignvm.MemoryStartup, p)
	warm := codesignvm.EstimateScenarioCycles(codesignvm.CodeCacheWarm, p)
	if mem <= warm {
		t.Errorf("memory startup (%v) must exceed warm (%v)", mem, warm)
	}
}

func TestPublicIncrementalVM(t *testing.T) {
	prog, err := codesignvm.LoadWorkload("Excel", 200)
	if err != nil {
		t.Fatal(err)
	}
	vm := codesignvm.NewVM(codesignvm.Ref, prog)
	r1, err := vm.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	c1, i1 := r1.Cycles, r1.Instrs
	vm.Engine().Caches.Flush()
	r2, err := vm.Run(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Instrs <= i1 || r2.Cycles <= c1 {
		t.Errorf("incremental run did not progress: %v/%v then %v/%v", i1, c1, r2.Instrs, r2.Cycles)
	}
}
