package vmm

import (
	"reflect"
	"testing"

	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
)

// observedRun simulates one run under a recorder minted from o and
// returns the result and the recorder.
func observedRun(t *testing.T, cfg Config, seed int64, budget uint64, o *obs.Observer) (*Result, *obs.Recorder) {
	t.Helper()
	rec := o.NewRun("test")
	vm := New(cfg, freshMemory(buildProgram(seed), seed), initState())
	vm.SetObserver(rec)
	res, err := vm.Run(budget)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res, rec
}

// armAll enables everything on o that the *AcrossModes tests toggle —
// timeline sampling and cycle attribution — and returns o. Comparing a
// run under it with a run under a plainer observer checks that arming
// one part of the observability layer changes nothing another part
// reports.
func armAll(o *obs.Observer, budget uint64) *obs.Observer {
	o.EnableTimeline()
	o.EnableAttrib(attrib.Spec{RegionBase: tCodeBase, Milestones: []uint64{budget / 10, budget / 2, budget}})
	return o
}

// tracing returns an observer streaming events to a Chrome trace that
// is thrown away.
func tracing() *obs.Observer { return obs.NewObserver(obs.NewTraceSink(discardWriter{})) }

// metricsAcrossModes simulates one run metrics-only and once more
// streaming a trace under armAll, fails the test unless both report the
// same metrics, and returns them. The attributing run alone carries the
// cycles{category=…} family, which the comparison leaves out.
func metricsAcrossModes(t *testing.T, cfg Config, seed int64, budget uint64) obs.Snapshot {
	t.Helper()
	plain, _ := observedRun(t, cfg, seed, budget, obs.NewObserver(nil))
	full, _ := observedRun(t, cfg, seed, budget, armAll(tracing(), budget))
	var fullVM obs.Snapshot
	for _, m := range full.Metrics {
		if m.Name != "cycles" {
			fullVM = append(fullVM, m)
		}
	}
	if !reflect.DeepEqual(plain.Metrics, fullVM) {
		t.Fatalf("seed %d: metrics differ between observation modes\nplain: %+v\nfull:  %+v", seed, plain.Metrics, fullVM)
	}
	return plain.Metrics
}

// metric reads one metric's value from a snapshot.
func metric(s obs.Snapshot, name string) float64 {
	m, _ := s.Get(name)
	return m.Value
}

// TestObsMetricsAcrossModes drives the rare paths — SBT promotion,
// BBT/SBT cache flushes, shadow eviction — and asserts a metrics-only
// run and a run that also streams a trace, samples a timeline and
// attributes its cycles report identical metrics: neither the sink,
// the sampler nor the profiler may perturb what is counted.
func TestObsMetricsAcrossModes(t *testing.T) {
	t.Run("cache-flushes", func(t *testing.T) {
		flushes := 0.0
		for seed := int64(1); seed <= 4; seed++ {
			cfg := DefaultConfig(StratSoft)
			cfg.HotThreshold = 12
			cfg.BBTCacheSize = 256
			cfg.SBTCacheSize = 512
			m := metricsAcrossModes(t, cfg, seed, 4_000_000)
			if metric(m, "vm.sbt.promotions") == 0 {
				t.Fatalf("seed %d: no SBT promotion exercised", seed)
			}
			flushes += metric(m, "vm.cache.bbt.flushes") + metric(m, "vm.cache.sbt.flushes")
		}
		if flushes == 0 {
			t.Fatal("no cache flush exercised across the seed set")
		}
	})
	t.Run("shadow-eviction", func(t *testing.T) {
		cfg := DefaultConfig(StratInterp)
		cfg.HotThreshold = 5
		cfg.ShadowCap = 8
		if metric(metricsAcrossModes(t, cfg, 2, 4_000_000), "vm.shadow.evictions") == 0 {
			t.Fatal("no shadow eviction exercised")
		}
	})
}

// TestObservedMatchesUnobserved: attaching a recorder must not change
// any reported simulation result — observability is purely
// observational. Everything except the Metrics snapshot itself must be
// byte-identical to an uninstrumented run.
func TestObservedMatchesUnobserved(t *testing.T) {
	for _, strat := range []Strategy{StratSoft, StratBE, StratInterp} {
		cfg := DefaultConfig(strat)
		cfg.HotThreshold = 12
		if strat == StratInterp {
			cfg.HotThreshold = 5
		}
		plain := func() *Result {
			vm := New(cfg, freshMemory(buildProgram(5), 5), initState())
			res, err := vm.Run(4_000_000)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}()
		observed, _ := observedRun(t, cfg, 5, 4_000_000, tracing())
		if plain.Metrics != nil {
			t.Fatal("uninstrumented run grew a metrics snapshot")
		}
		if observed.Metrics == nil {
			t.Fatal("instrumented run has no metrics snapshot")
		}
		if m, ok := observed.Metrics.Get("vm.run.instrs"); !ok || uint64(m.Value) != observed.Instrs {
			t.Fatalf("mirrored instrs metric wrong: %+v vs %d", m, observed.Instrs)
		}
		clone := *observed
		clone.Metrics = nil
		if !reflect.DeepEqual(plain, &clone) {
			t.Fatalf("%v: observed run changed reported results\nplain:    %+v\nobserved: %+v", strat, plain, &clone)
		}
	}
}

// TestObsDisabledAllocFree pins the disabled-observability cost
// contract on the dispatch hot path: with no recorder attached, the
// obs hooks are single nil checks and steady-state simulation stays
// allocation-free (the run epilogue's amortized sample append is the
// only permitted allocation source). This is the deterministic half of
// the CI overhead gate (scripts/ci.sh); the timing half is the manual
// A/B against the PR-2 benchmarks recorded in EXPERIMENTS.md.
func TestObsDisabledAllocFree(t *testing.T) {
	code := buildHotLoop(false)
	vm := New(DefaultConfig(StratSoft), freshMemory(code, 1), initState())
	budget := uint64(500_000)
	if _, err := vm.Run(budget); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		budget += 2000
		if _, err := vm.Run(budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.25 {
		t.Fatalf("disabled-observability hot path allocates %.2f/op, want ~0", allocs)
	}
}

// BenchmarkObsModes compares steady-state simulation with observability
// disabled, metrics-only, and with a live Chrome trace stream. Run
// manually (or at 1x from ci.sh) to see the per-mode cost.
func BenchmarkObsModes(b *testing.B) {
	modes := []struct {
		name string
		rec  func() *obs.Recorder
	}{
		{"disabled", func() *obs.Recorder { return nil }},
		{"metrics", func() *obs.Recorder { return obs.NewRecorder("bench", nil) }},
		{"trace", func() *obs.Recorder { return obs.NewRecorder("bench", obs.NewTraceSink(discardWriter{})) }},
	}
	code := buildHotLoop(false)
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := DefaultConfig(StratSoft)
			cfg.NoStartupSamples = true
			vm := New(cfg, freshMemory(code, 1), initState())
			vm.SetObserver(m.rec())
			budget := uint64(500_000)
			if _, err := vm.Run(budget); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				budget += 2000
				if _, err := vm.Run(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
