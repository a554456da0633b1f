package vmm

import (
	"testing"

	"codesignvm/internal/x86"
)

// preloaded is the FX!32 machine of the persist experiment: every saved
// translation resident before the first instruction, at no simulated
// cost — the eager warm start with restoring made free.
func preloaded(cfg Config) Config {
	cfg.WarmStart = WarmEager
	cfg.RestoreCyclesPerInst, cfg.RestoreFaultCycles = 0, 0
	return cfg
}

// TestPersistentTranslationsEquivalence: a VM preloaded with the
// translations of an earlier run must produce exactly the same
// architected results, with (almost) no translation cycles.
func TestPersistentTranslationsEquivalence(t *testing.T) {
	seed := int64(21)
	code := buildProgram(seed)
	goldenSt, goldenMem, goldenN := goldenRun(t, code, seed, 5_000_000)

	cfg := DefaultConfig(StratSoft)
	cfg.HotThreshold = 12

	// First run: translate everything, save the code caches.
	snap, res1 := warmSnapshot(t, cfg, code, seed, goldenN+1000)
	if snap.Size() == 0 {
		t.Fatal("nothing saved")
	}

	// Second run: preload, then execute.
	mem2 := freshMemory(code, seed)
	vm2 := New(preloaded(cfg), mem2, initState())
	n, err := vm2.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing restored")
	}
	res2, err := vm2.Run(goldenN + 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Halted || res2.Instrs != goldenN {
		t.Fatalf("preloaded run: halted=%v instrs=%d want %d", res2.Halted, res2.Instrs, goldenN)
	}
	var final x86.State
	vm2.nst.StoreArch(&final)
	final.EIP = goldenSt.EIP
	if !final.Equal(goldenSt) {
		t.Errorf("preloaded run diverged:\n golden R=%x F=%v\n got    R=%x F=%v",
			goldenSt.R, goldenSt.Flags, final.R, final.Flags)
	}
	compareMemories(t, "persist", goldenMem, mem2)

	// Economics: the preloaded run performs (almost) no translation.
	if res2.BBTTranslations > res1.BBTTranslations/10 {
		t.Errorf("preloaded run still translated %d blocks (first run: %d)",
			res2.BBTTranslations, res1.BBTTranslations)
	}
	if res2.Cat[CatBBTXlate]+res2.Cat[CatSBTXlate] > (res1.Cat[CatBBTXlate]+res1.Cat[CatSBTXlate])/5 {
		t.Errorf("preloaded run spent %.0f translation cycles (first run %.0f)",
			res2.Cat[CatBBTXlate]+res2.Cat[CatSBTXlate],
			res1.Cat[CatBBTXlate]+res1.Cat[CatSBTXlate])
	}
	if res2.Cycles >= res1.Cycles {
		t.Errorf("preloaded startup (%.0f cycles) not faster than cold (%.0f)",
			res2.Cycles, res1.Cycles)
	}
}

// TestPersistAcrossStrategies: translations saved from VM.soft restore
// into VM.be (content is strategy-independent).
func TestPersistAcrossStrategies(t *testing.T) {
	seed := int64(33)
	code := buildProgram(seed)
	_, _, goldenN := goldenRun(t, code, seed, 5_000_000)

	cfg := DefaultConfig(StratSoft)
	cfg.HotThreshold = 12
	snap, _ := warmSnapshot(t, cfg, code, seed, goldenN+1000)

	cfgBE := DefaultConfig(StratBE)
	cfgBE.HotThreshold = 12
	vm2 := New(preloaded(cfgBE), freshMemory(code, seed), initState())
	if _, err := vm2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res, err := vm2.Run(goldenN + 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Instrs != goldenN {
		t.Fatalf("cross-strategy preload failed: %+v", res)
	}
}
