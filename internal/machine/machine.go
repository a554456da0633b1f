package machine

import (
	"fmt"

	"codesignvm/internal/codecache"
	"codesignvm/internal/obs"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// Model names a machine configuration.
type Model uint8

// Machine models.
const (
	Ref Model = iota
	VMSoft
	VMBE
	VMFE
	VMInterp
	VMStaged3
	NumModels
)

var modelNames = [NumModels]string{"Ref", "VM.soft", "VM.be", "VM.fe", "VM.interp", "VM.3stage"}

func (m Model) String() string { return modelNames[m] }

// Strategy returns the VMM strategy implementing the model.
func (m Model) Strategy() vmm.Strategy {
	switch m {
	case Ref:
		return vmm.StratRef
	case VMSoft:
		return vmm.StratSoft
	case VMBE:
		return vmm.StratBE
	case VMFE:
		return vmm.StratFE
	case VMInterp:
		return vmm.StratInterp
	case VMStaged3:
		return vmm.StratStaged3
	}
	panic("machine: bad model")
}

// ByName resolves a model from its display name.
func ByName(name string) (Model, error) {
	for m := Ref; m < NumModels; m++ {
		if modelNames[m] == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("machine: unknown model %q", name)
}

// Config returns the vmm configuration of a model (Table 2 plus the
// §3.2 translation-cost constants).
func Config(m Model) vmm.Config {
	return vmm.DefaultConfig(m.Strategy())
}

// Run simulates the program on the model for up to maxInstrs architected
// instructions under the memory-startup scenario (§3.1 scenario 2: the
// binary is resident in memory, all caches are cold).
func Run(m Model, prog *workload.Program, maxInstrs uint64) (*vmm.Result, error) {
	return RunConfig(Config(m), prog, maxInstrs)
}

// RunConfig simulates with an explicit configuration (used by ablation
// and sensitivity experiments).
func RunConfig(cfg vmm.Config, prog *workload.Program, maxInstrs uint64) (*vmm.Result, error) {
	return RunConfigObserved(cfg, prog, maxInstrs, nil)
}

// RunConfigObserved simulates with an observability recorder attached:
// the run's host span goes to the recorder's sink and the Result
// carries the recorder's metric snapshot. A nil recorder behaves
// exactly like RunConfig. The recorder rides on the VM, not the
// configuration, so cfg remains a comparable cache/store key.
func RunConfigObserved(cfg vmm.Config, prog *workload.Program, maxInstrs uint64, rec *obs.Recorder) (*vmm.Result, error) {
	return RunConfigWarm(cfg, prog, maxInstrs, rec, nil)
}

// RunConfigWarm is RunConfigObserved with an optional warm-start
// snapshot: when snap is non-nil and the configuration enables warm
// start, the VM restores its translation caches from the snapshot
// before the run (vmm.VM.Restore — eager or hybrid preload is charged
// up front, lazy entries fault in on first dispatch). A nil snapshot
// or a WarmOff configuration is exactly a cold RunConfigObserved.
func RunConfigWarm(cfg vmm.Config, prog *workload.Program, maxInstrs uint64, rec *obs.Recorder, snap *codecache.Snapshot) (*vmm.Result, error) {
	mem := prog.Memory()
	vm := vmm.New(cfg, mem, prog.InitState())
	vm.SetObserver(rec)
	if snap != nil && cfg.WarmStart != vmm.WarmOff {
		if _, err := vm.Restore(snap); err != nil {
			return nil, err
		}
	}
	return vm.Run(maxInstrs)
}

// NewVM constructs a VM for a model over the program without running it
// (used by experiments that need mid-run access).
func NewVM(m Model, prog *workload.Program) *vmm.VM {
	return vmm.New(Config(m), prog.Memory(), prog.InitState())
}
