package vmm

import (
	"runtime"
	"testing"
)

// steadyStateVM builds a VM, warms it past translation and chaining,
// and returns it together with the warmed cycle budget. Subsequent
// Run calls with a slightly larger budget exercise only the dispatch
// fast path: every block is translated, chained, and hot.
func steadyStateVM(t testing.TB, indirect bool) (*VM, uint64) {
	t.Helper()
	code := buildHotLoop(indirect)
	cfg := DefaultConfig(StratSoft)
	cfg.Pipeline = false
	cfg.NoStartupSamples = true
	vm := New(cfg, freshMemory(code, 1), initState())
	budget := uint64(500_000)
	if _, err := vm.Run(budget); err != nil {
		t.Fatal(err)
	}
	return vm, budget
}

// TestDispatchHotZeroAlloc asserts the chained-dispatch steady state
// allocates nothing per Run step: translations live in the code
// cache's arena, the trace/event buffers are retained, and with
// NoStartupSamples set there is no sample bookkeeping left. A single
// byte of per-step heap traffic here multiplies across the billions
// of dispatches in a full figure run, so this is an exact gate, not a
// threshold.
func TestDispatchHotZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		indirect bool
	}{
		{"chained", false},
		{"jtlb-hit", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm, budget := steadyStateVM(t, tc.indirect)
			allocs := testing.AllocsPerRun(100, func() {
				budget += 2000
				if _, err := vm.Run(budget); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state %s dispatch: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestObsDisabledZeroAlloc asserts that a VM with no observer attached
// (the default) pays zero allocations per steady-state Run step — the
// observability layer must be free when disabled.
func TestObsDisabledZeroAlloc(t *testing.T) {
	vm, budget := steadyStateVM(t, false)
	vm.SetObserver(nil)
	allocs := testing.AllocsPerRun(100, func() {
		budget += 2000
		if _, err := vm.Run(budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-obs steady state: %v allocs/op, want 0", allocs)
	}
}

// TestNewVMAllocCeiling bounds what building a VM allocates, strategy by
// strategy: every run of every sweep starts with one, and nearly all of
// it is the cache hierarchy's arrays (≈ 183 KiB of Table 2 state; the
// array-of-structs hierarchy made it ≈ 690 KiB in all).
func TestNewVMAllocCeiling(t *testing.T) {
	const ceiling = 400 << 10
	code := buildHotLoop(false)
	for _, strat := range []Strategy{StratRef, StratSoft, StratBE, StratFE, StratInterp} {
		mem, init := freshMemory(code, 1), initState()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const builds = 8
		for i := 0; i < builds; i++ {
			sinkVM = New(DefaultConfig(strat), mem, init)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > ceiling {
			t.Errorf("%v: New allocates %d KiB, ceiling %d KiB", strat, per>>10, ceiling>>10)
		} else {
			t.Logf("%v: New allocates %d KiB", strat, per>>10)
		}
	}
}

var sinkVM *VM
