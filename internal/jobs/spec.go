package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"codesignvm/internal/experiments"
	"codesignvm/internal/workload"
)

// Spec is one submitted workload: a named report experiment plus the
// grid parameters the CLI exposes as flags. The zero value of every
// optional field selects the CLI default, so a minimal submission is
// just {"exp":"fig2"}.
type Spec struct {
	// Exp names the experiment: any single report experiment
	// (experiments.ExperimentNames), the composites "sweep" (the six
	// paper figures) and "all", or the vmsim modes "run" and "dump",
	// which Manager.Submit refuses: their output embeds wall clock.
	Exp string `json:"exp"`
	// Apps restricts the benchmark suite (vmsim -apps). Order matters:
	// reports iterate apps in the given order. Empty means all ten.
	Apps []string `json:"apps,omitempty"`
	// App parameterizes the app-scoped extension experiments
	// (pressure, ctxswitch, deltasweep; vmsim -app). Empty means
	// "Word", the CLI default.
	App string `json:"app,omitempty"`
	// Scale is the workload scale divisor (vmsim -scale; 0 means 25,
	// the default reporting scale; 1 is paper-sized and expensive).
	Scale int `json:"scale,omitempty"`
	// Instrs overrides the instruction budget (vmsim -instrs; 0 keeps
	// the scaled defaults: 500M/scale long, 100M/scale short).
	Instrs uint64 `json:"instrs,omitempty"`
	// HotThreshold overrides the Eq. 2 hot threshold (vmsim has no
	// flag for this; 0 keeps the model defaults).
	HotThreshold uint64 `json:"hot_threshold,omitempty"`
	// Force bypasses idempotent submission: even if an identical spec
	// is already queued or running, a new job is created. The
	// underlying simulations still dedupe exactly-once through the
	// run cache and store — Force only duplicates the job envelope.
	Force bool `json:"force,omitempty"`
}

// maxScale bounds the scale divisor: beyond it the traces collapse to a
// handful of instructions and the reports are meaningless.
const maxScale = 100000

// maxInstrs bounds the instruction budget at the paper-sized trace
// length: one job may not ask for more simulation than -scale 1 does.
const maxInstrs = 500_000_000

// Validate checks the spec against the experiment grid — known
// experiment names, known benchmark apps, sane scale and budget — and
// returns it with defaults filled in (scale 25, app "Word"). It is
// the one validator of these fields: every submission and every vmsim
// invocation calls it, so an invalid spec fails with a one-line error
// before any simulation starts, never mid-job.
func (s Spec) Validate() (Spec, error) {
	switch {
	case s.Exp == "":
		return s, fmt.Errorf("spec: missing \"exp\" (one of: %s, sweep, all)",
			strings.Join(experiments.ExperimentNames(), ", "))
	case !experiments.IsExperiment(s.Exp) && !isCLIMode(s.Exp):
		return s, fmt.Errorf("spec: unknown experiment %q (one of: %s, sweep, all)",
			s.Exp, strings.Join(experiments.ExperimentNames(), ", "))
	}
	if s.Scale == 0 {
		s.Scale = 25
	}
	if s.Scale < 1 || s.Scale > maxScale {
		return s, fmt.Errorf("spec: scale %d out of range [1, %d]", s.Scale, maxScale)
	}
	if s.Instrs > maxInstrs {
		return s, fmt.Errorf("spec: instrs %d exceeds the paper-sized budget %d", s.Instrs, maxInstrs)
	}
	if s.HotThreshold > 10_000_000 {
		return s, fmt.Errorf("spec: hot_threshold %d out of range [0, 10000000]", s.HotThreshold)
	}
	if s.App == "" {
		s.App = "Word"
	}
	if _, err := workload.ByName(s.App); err != nil {
		return s, fmt.Errorf("spec: app: %v", err)
	}
	for _, app := range s.Apps {
		if _, err := workload.ByName(app); err != nil {
			return s, fmt.Errorf("spec: apps: %v", err)
		}
	}
	return s, nil
}

// isCLIMode reports the vmsim modes that read a spec but render no report.
func isCLIMode(exp string) bool { return exp == "run" || exp == "dump" }

// Key is the spec's canonical content hash: identical specs (after
// Validate's default-filling, excluding Force) share a key, which is
// what idempotent submission dedupes on. App order is significant —
// it changes report iteration order, hence report bytes.
func (s Spec) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "jobspec1\n%s\n%s\n%s\n%d\n%d\n%d\n",
		s.Exp, strings.Join(s.Apps, ","), s.App, s.Scale, s.Instrs, s.HotThreshold)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
