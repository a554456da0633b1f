package metrics_test

import (
	"math"
	"testing"

	"codesignvm/internal/experiments"
	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
)

// TestBreakevenMatchesSearchOnReports: on every (ref, vm) pair the
// report pass hands Breakeven, Breakeven returns the bits of the search
// that evaluates every grid point. The pairs are fig2's, fig8's (fig9
// computes its own from the same runs) and warmstart's.
func TestBreakevenMatchesSearchOnReports(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := experiments.Options{Scale: 200, LongInstrs: 600_000, Apps: []string{"Word", "Winzip", "Project"}}
	type pair struct {
		name    string
		ref, vm []vmm.Sample
	}
	var pairs []pair
	for _, fig := range []func(experiments.Options) (*experiments.StartupCurves, error){experiments.Fig2, experiments.Fig8} {
		s, err := fig(opt)
		if err != nil {
			t.Fatal(err)
		}
		if s.Models[0] != machine.Ref {
			t.Fatalf("the first model is %v, not the reference", s.Models[0])
		}
		for _, app := range opt.Apps {
			for _, m := range s.Models[1:] {
				pairs = append(pairs, pair{app + "/" + m.String(), s.Result(app, machine.Ref).Samples, s.Result(app, m).Samples})
			}
		}
	}
	ws, err := experiments.WarmStartFig(opt)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Arms[0] != "Ref" {
		t.Fatalf("the first arm is %s, not the reference", ws.Arms[0])
	}
	for _, app := range opt.Apps {
		for _, arm := range ws.Arms[1:] {
			pairs = append(pairs, pair{app + "/" + arm, ws.Result(app, "Ref").Samples, ws.Result(app, arm).Samples})
		}
	}
	crossed := 0
	for _, p := range pairs {
		be, ok := metrics.Breakeven(p.ref, p.vm)
		want, wantOK := metrics.SearchBreakeven(p.ref, p.vm)
		if ok != wantOK || math.Float64bits(be) != math.Float64bits(want) {
			t.Errorf("%s: Breakeven = %v, %v; search = %v, %v", p.name, be, ok, want, wantOK)
		}
		if ok {
			crossed++
		}
	}
	t.Logf("%d pairs, %d cross", len(pairs), crossed)
}
