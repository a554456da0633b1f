package machine

import (
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

func TestModelNames(t *testing.T) {
	for m := Ref; m < NumModels; m++ {
		back, err := ByName(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v: %v %v", m, back, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("expected error")
	}
}

// TestStartupOrdering is the headline calibration check: on a scaled
// Winstone-like workload, early-startup performance must order
// Interp < soft < be ≤ fe ≈ ref, and the VM schemes must show a
// steady-state advantage over Ref.
func TestStartupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("startup simulation is seconds-long")
	}
	prog, err := workload.App("Word", 100)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3_000_000
	results := map[Model]*vmm.Result{}
	for m := Ref; m < NumModels; m++ {
		res, err := Run(m, prog, budget)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		results[m] = res
		t.Logf("%-10v cycles=%.3e IPC=%.3f steady=%.3f sbtCover=%.2f cat=%v",
			m, res.Cycles, res.IPC(), metrics.SteadyIPC(res.Samples, 0.5),
			res.HotspotCoverage(), res.Cat)
	}

	refIPC := results[Ref].IPC()
	// Early behaviour: at the cycle count where Ref has run 1/10 of its
	// total, the software VM must be clearly behind Ref, and VM.fe must
	// be close to Ref.
	probe := results[Ref].Cycles / 10
	at := func(m Model) float64 {
		cur := metrics.NewCursor(results[m].Samples)
		return cur.InstrsAt(probe)
	}
	refI, softI, feI, interpI, beI := at(Ref), at(VMSoft), at(VMFE), at(VMInterp), at(VMBE)
	t.Logf("at %.2e cycles: ref=%.0f soft=%.0f be=%.0f fe=%.0f interp=%.0f",
		probe, refI, softI, beI, feI, interpI)
	if softI >= refI {
		t.Errorf("VM.soft should start slower than Ref (soft=%.0f ref=%.0f)", softI, refI)
	}
	if interpI >= softI {
		t.Errorf("interpretation should start slower than BBT (interp=%.0f soft=%.0f)", interpI, softI)
	}
	if beI <= softI {
		t.Errorf("VM.be should start faster than VM.soft (be=%.0f soft=%.0f)", beI, softI)
	}
	if feI < 0.85*refI {
		t.Errorf("VM.fe should track Ref closely (fe=%.0f ref=%.0f)", feI, refI)
	}

	// Steady state: the fused-macro-op VMs should beat Ref's IPC in
	// their optimized region.
	steadyRef := metrics.SteadyIPC(results[Ref].Samples, 0.6)
	steadyFE := metrics.SteadyIPC(results[VMFE].Samples, 0.6)
	t.Logf("steady: ref=%.3f fe=%.3f (gain %.1f%%)", steadyRef, steadyFE, 100*(steadyFE/steadyRef-1))
	if steadyFE <= steadyRef {
		t.Errorf("VM.fe steady IPC %.3f should exceed Ref %.3f", steadyFE, steadyRef)
	}
	_ = refIPC
}

func TestRunConfigOverride(t *testing.T) {
	prog, err := workload.App("Norton", 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config(VMSoft)
	cfg.HotThreshold = 1 << 62 // never optimize
	res, err := RunConfig(cfg, prog, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SBTTranslations != 0 {
		t.Errorf("threshold override ignored: %d superblocks", res.SBTTranslations)
	}
}

// TestEncodedSizesMatchEncoder: for every micro-op of every translation
// (basic blocks and superblocks) the three benchmark applications leave
// in the code caches, Encode produces exactly EncodedLen bytes, and the
// running size the translators keep while emitting equals the encoded
// image's length.
func TestEncodedSizesMatchEncoder(t *testing.T) {
	for _, app := range []string{"Word", "Winzip", "Project"} {
		prog, err := workload.App(app, 100)
		if err != nil {
			t.Fatal(err)
		}
		vm := NewVM(VMSoft, prog)
		if _, err := vm.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		bbtC, sbtC := vm.Caches()
		blocks, uops := 0, 0
		for _, c := range []*codecache.Cache{bbtC, sbtC} {
			c.ForEach(func(tr *codecache.Translation) {
				blocks++
				var image []byte
				for i := range tr.Uops {
					before := len(image)
					var err error
					if image, err = fisa.Encode(image, &tr.Uops[i]); err != nil {
						t.Fatalf("%s %#x µop %d (%v): %v", app, tr.EntryPC, i, tr.Uops[i], err)
					}
					if got, want := len(image)-before, fisa.EncodedLen(&tr.Uops[i]); got != want {
						t.Fatalf("%s %#x µop %d (%v): encoded %d bytes, EncodedLen %d", app, tr.EntryPC, i, tr.Uops[i], got, want)
					}
					uops++
				}
				if tr.Size != len(image) || tr.NumUops != len(tr.Uops) {
					t.Fatalf("%s %v %#x: Size %d NumUops %d, encoded %d bytes of %d µops",
						app, tr.Kind, tr.EntryPC, tr.Size, tr.NumUops, len(image), len(tr.Uops))
				}
			})
		}
		if sbtC.Len() == 0 || blocks < 100 {
			t.Fatalf("%s: only %d translations (%d superblocks): the run is too short to mean anything", app, blocks, sbtC.Len())
		}
		t.Logf("%s: %d translations, %d µops", app, blocks, uops)
	}
}
