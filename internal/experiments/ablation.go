package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"codesignvm/internal/hwassist"
	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// AblationReport quantifies the contribution of each SBT optimization
// pass (the design choices DESIGN.md calls out): steady-state IPC of
// VM.soft with passes selectively disabled.
type AblationReport struct {
	Opt Options
	// SteadyIPC[variant] is the harmonic mean across apps.
	SteadyIPC map[string]float64
	// FusedFrac[variant] is the dynamic fused-µop fraction.
	FusedFrac map[string]float64
	Variants  []string
}

// Ablation runs the optimizer ablation over the suite.
func Ablation(opt Options) (*AblationReport, error) {
	opt = opt.withDefaults()
	type variant struct {
		name string
		mod  func(*vmm.Config)
	}
	variants := []variant{
		{"baseline", func(c *vmm.Config) {}}, // reorder+fuse (the paper's SBT)
		{"no-fusion", func(c *vmm.Config) { c.SBT.EnableFusion = false }},
		{"+cleanup", func(c *vmm.Config) { c.SBT.EnableDCE = true; c.SBT.EnableCopyProp = true }},
		{"+cleanup-only", func(c *vmm.Config) {
			c.SBT.EnableFusion = false
			c.SBT.EnableDCE = true
			c.SBT.EnableCopyProp = true
		}},
	}
	rep := &AblationReport{
		Opt:       opt,
		SteadyIPC: map[string]float64{},
		FusedFrac: map[string]float64{},
	}
	for _, v := range variants {
		rep.Variants = append(rep.Variants, v.name)
	}
	// Grid over (app × variant); per-cell stats land in indexed slots
	// and reduce in suite order, so the harmonic means and averages are
	// deterministic under parallel scheduling.
	type cell struct {
		ipc, frac float64
	}
	nv := len(variants)
	cells := make([]cell, len(opt.Apps)*nv)
	err := opt.forEachTask(len(cells), func(i int) error {
		app, v := opt.Apps[i/nv], variants[i%nv]
		cfg := opt.configFor(machine.VMSoft)
		v.mod(&cfg)
		res, err := opt.runApp(cfg, app, opt.ShortInstrs)
		if err != nil {
			return fmt.Errorf("%s %s: %w", app, v.name, err)
		}
		frac := 0.0
		if res.SBTUops > 0 {
			frac = 2 * float64(res.SBTUops-res.SBTEntities) / float64(res.SBTUops)
		}
		cells[i] = cell{ipc: metrics.SteadyIPC(res.Samples, 0.5), frac: frac}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		ipcs := make([]float64, 0, len(opt.Apps))
		sum := 0.0
		for ai := range opt.Apps {
			c := cells[ai*nv+vi]
			ipcs = append(ipcs, c.ipc)
			sum += c.frac
		}
		rep.SteadyIPC[v.name] = metrics.HarmonicMean(ipcs)
		rep.FusedFrac[v.name] = sum / float64(len(opt.Apps))
	}
	return rep, nil
}

// FormatAblation renders the ablation table.
func FormatAblation(r *AblationReport) string {
	out := "SBT optimizer ablation (VM.soft, steady-state)\n"
	out += fmt.Sprintf("%-14s %12s %12s %10s\n", "variant", "steady IPC", "vs baseline", "fused µops")
	base := r.SteadyIPC["baseline"]
	for _, v := range r.Variants {
		rel := 0.0
		if base > 0 {
			rel = 100 * (r.SteadyIPC[v]/base - 1)
		}
		out += fmt.Sprintf("%-14s %12.3f %+11.1f%% %9.1f%%\n", v, r.SteadyIPC[v], rel, 100*r.FusedFrac[v])
	}
	return out
}

// Table1Report characterizes the XLTx86 unit over a random instruction
// stream (Table 1's behaviour: CSR fields, complex-fallback rate,
// micro-op bytes).
type Table1Report struct {
	Instructions  int
	ComplexPct    float64
	AvgUopBytes   float64
	AvgUopsPerX86 float64
	AvgILen       float64
	BusyCycles    uint64
}

// Table1 exercises the backend functional unit on a randomized
// instruction mix drawn from the workload generator's distribution.
func Table1(n int, seed int64) (*Table1Report, error) {
	if n <= 0 {
		n = 10000
	}
	prog, err := workload.Generate(workload.Params{
		Name: "xlt-probe", Seed: seed, StaticInstrs: 30000 * 25, HotFrac: 0.05,
		DataWS: 1 << 20, BranchBias: 0.7, Fusability: 0.5, MemRatio: 0.4,
		ComplexPerMille: 10, InnerTrips: 16,
	}, 25)
	if err != nil {
		return nil, err
	}
	mem := x86.NewMemory()
	mem.WriteBytes(workload.CodeBase, prog.Code)

	unit := hwassist.NewXLTUnit()
	rep := &Table1Report{}
	var uopBytes, uops, ilen float64
	pc := uint32(workload.CodeBase)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		in, err := x86.DecodeMem(mem, pc)
		if err != nil {
			// Jump to a fresh random spot in the code image.
			pc = workload.CodeBase + uint32(rng.Intn(len(prog.Code)-32))
			continue
		}
		us, csr, desc, err := unit.Translate(mem, pc)
		if err != nil {
			return nil, err
		}
		rep.Instructions++
		ilen += float64(csr.X86ILen)
		uopBytes += float64(desc.Bytes)
		uops += float64(len(us))
		if csr.FlagCmplx {
			rep.ComplexPct++
		}
		if in.Op.IsCTI() {
			pc = workload.CodeBase + uint32(rng.Intn(len(prog.Code)-32))
		} else {
			pc += uint32(in.Len)
		}
	}
	if rep.Instructions > 0 {
		rep.ComplexPct = 100 * rep.ComplexPct / float64(rep.Instructions)
		rep.AvgUopBytes = uopBytes / float64(rep.Instructions)
		rep.AvgUopsPerX86 = uops / float64(rep.Instructions)
		rep.AvgILen = ilen / float64(rep.Instructions)
	}
	rep.BusyCycles = unit.BusyCycles
	return rep, nil
}

// FormatTable1 renders the XLTx86 characterization.
func FormatTable1(r *Table1Report) string {
	return fmt.Sprintf(`Table 1 — XLTx86 backend functional unit characterization
instructions decoded:   %d
avg x86 length:         %.2f bytes
avg µops generated:     %.2f (%.2f bytes; Fdst holds 16)
Flag_cmplx rate:        %.2f%%
unit busy cycles:       %d (4 per accepted instruction)
`, r.Instructions, r.AvgILen, r.AvgUopsPerX86, r.AvgUopBytes, r.ComplexPct, r.BusyCycles)
}

// FormatTable2 renders the machine configurations (Table 2).
func FormatTable2() string {
	out := "Table 2 — machine configurations\n"
	models := []machine.Model{machine.Ref, machine.VMSoft, machine.VMBE, machine.VMFE}
	rows := []struct {
		name string
		get  func(vmm.Config) string
	}{
		{"cold code", func(c vmm.Config) string {
			switch c.Strategy {
			case vmm.StratRef:
				return "HW x86 decode"
			case vmm.StratFE:
				return "dual-mode decode"
			case vmm.StratBE:
				return "BBT + XLTx86"
			default:
				return "software BBT"
			}
		}},
		{"hotspot", func(c vmm.Config) string {
			if c.Strategy == vmm.StratRef {
				return "none"
			}
			return "SBT (fused µops)"
		}},
		{"hot threshold", func(c vmm.Config) string {
			if c.Strategy == vmm.StratRef {
				return "-"
			}
			return fmt.Sprintf("%d", c.HotThreshold)
		}},
		{"ΔBBT cyc/inst", func(c vmm.Config) string {
			if c.Strategy.UsesBBT() {
				return fmt.Sprintf("%.0f", c.BBTCyclesPerInst)
			}
			return "-"
		}},
		{"mispredict", func(c vmm.Config) string {
			if c.Strategy == vmm.StratRef {
				return fmt.Sprintf("%d", c.MispredictPenaltyX86)
			}
			return fmt.Sprintf("%d/%d", c.Timing.MispredictPenalty, c.MispredictPenaltyX86)
		}},
	}
	out += fmt.Sprintf("%-16s", "")
	for _, m := range models {
		out += fmt.Sprintf("%18s", m)
	}
	out += "\n"
	for _, row := range rows {
		out += fmt.Sprintf("%-16s", row.name)
		for _, m := range models {
			out += fmt.Sprintf("%18s", row.get(machine.Config(m)))
		}
		out += "\n"
	}
	out += "shared: 3-wide, 128 ROB, 64KB L1I (2cy), 64KB L1D (3cy), 2MB L2 (12cy), 168cy memory\n"
	return out
}

// sortedApps returns the report apps in stable order.
func sortedApps(apps []string) []string {
	out := append([]string(nil), apps...)
	sort.Strings(out)
	return out
}
