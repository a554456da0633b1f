package experiments

import (
	"strings"
	"testing"

	"codesignvm/internal/obs/attrib"
)

// TestDefaultAttribSpec pins the milestone derivation: ascending,
// deduplicated, ending at the full budget, regions over the workload
// code base.
func TestDefaultAttribSpec(t *testing.T) {
	s := DefaultAttribSpec(600_000)
	if s.RegionBase != 0x00400000 {
		t.Errorf("RegionBase = %#x, want the workload code base", s.RegionBase)
	}
	if len(s.Milestones) == 0 || s.Milestones[len(s.Milestones)-1] != 600_000 {
		t.Fatalf("milestones %v must end at the budget", s.Milestones)
	}
	for i := 1; i < len(s.Milestones); i++ {
		if s.Milestones[i] <= s.Milestones[i-1] {
			t.Fatalf("milestones %v not strictly ascending", s.Milestones)
		}
	}
	// A tiny budget must not produce zero or duplicate milestones.
	tiny := DefaultAttribSpec(50)
	for i, m := range tiny.Milestones {
		if m == 0 || (i > 0 && m <= tiny.Milestones[i-1]) {
			t.Fatalf("tiny-budget milestones %v malformed", tiny.Milestones)
		}
	}
}

// TestGoldenPhasesAcrossHostModes: the phases report — shares,
// milestones, every digit — is byte-identical whether the grid runs
// sequentially or in parallel, each arm simulating for itself. The
// profiler is charged on every run's own goroutine, so this exercises
// the whole attribution chain under concurrent runs.
func TestGoldenPhasesAcrossHostModes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	o := detOpt()
	o.Apps = []string{"Word", "Winzip"}
	reportAcrossGridModes(t, "phases", o)
}

// TestPhasesFigInvariants checks the figure's semantic contract on one
// run: every arm present, every per-app result carrying a snapshot
// whose categories sum exactly to the run total, and warm arms
// cheaper than cold overall.
func TestPhasesFigInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	resetSnapCacheForTest()
	resetRunCacheForTest()
	o := detOpt()
	o.Apps = []string{"Word"}
	r, err := PhasesFig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 4 || r.Arms[0] != "cold" {
		t.Fatalf("arms = %v", r.Arms)
	}
	for _, arm := range r.Arms {
		res := r.Result("Word", arm)
		if res == nil || res.Attrib == nil {
			t.Fatalf("arm %s: missing result or attribution", arm)
		}
		sum := 0.0
		for _, v := range res.Attrib.Cat {
			sum += v
		}
		if sum != res.Cycles {
			t.Errorf("arm %s: category sum %v != cycles %v", arm, sum, res.Cycles)
		}
		m := r.Merged[arm]
		if m == nil || len(m.Phases) == 0 {
			t.Fatalf("arm %s: merged snapshot missing or phase-less", arm)
		}
	}
	if cold, eager := r.Merged["cold"], r.Merged["eager"]; eager.TotalCycles >= cold.TotalCycles {
		t.Errorf("eager warm start (%v cycles) not cheaper than cold (%v)", eager.TotalCycles, cold.TotalCycles)
	}
	txt := FormatPhases(r)
	if !strings.Contains(txt, "arm cold:") || !strings.Contains(txt, attrib.BBTTranslate.String()) {
		t.Errorf("FormatPhases output missing expected sections:\n%s", txt)
	}
}
