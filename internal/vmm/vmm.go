package vmm

import (
	"fmt"
	"unsafe"

	"codesignvm/internal/bbt"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/profile"
	"codesignvm/internal/sbt"
	"codesignvm/internal/timing"
)

// Strategy selects the emulation scheme.
type Strategy uint8

// Emulation strategies.
const (
	// StratRef is the reference superscalar: hardware x86 decoders, no
	// translation, no hotspot optimization.
	StratRef Strategy = iota
	// StratInterp is interpretation followed by SBT hotspot optimization.
	StratInterp
	// StratSoft is software BBT followed by SBT (the baseline VM).
	StratSoft
	// StratBE is BBT assisted by the XLTx86 backend functional unit,
	// followed by SBT.
	StratBE
	// StratFE is dual-mode frontend decoding (x86-mode execution for
	// cold code) with SBT hotspot optimization and BBB hotspot
	// detection.
	StratFE
	// StratStaged3 is the Efficeon-style three-stage strategy the
	// paper's related work describes (§1.2): interpret first-touch code,
	// translate blocks with BBT once they re-execute a few times
	// (Eq. 2 applied to the interpret→BBT transition gives a threshold
	// of ~2-4), and optimize hotspots with SBT at the usual threshold.
	StratStaged3
)

func (s Strategy) String() string {
	switch s {
	case StratRef:
		return "Ref: superscalar"
	case StratInterp:
		return "VM.interp"
	case StratSoft:
		return "VM.soft"
	case StratBE:
		return "VM.be"
	case StratFE:
		return "VM.fe"
	case StratStaged3:
		return "VM.3stage"
	}
	return "strategy?"
}

// UsesBBT reports whether the strategy translates cold code with BBT.
func (s Strategy) UsesBBT() bool {
	return s == StratSoft || s == StratBE || s == StratStaged3
}

// UsesSBT reports whether the strategy optimizes hotspots.
func (s Strategy) UsesSBT() bool { return s != StratRef }

// Category buckets every simulated cycle (Fig. 10's breakdown).
type Category int

// Cycle categories.
const (
	CatBBTXlate Category = iota // BBT translation (software or assisted)
	CatSBTXlate                 // superblock translation/optimization
	CatBBTEmu                   // executing BBT translations
	CatSBTEmu                   // executing SBT translations
	CatX86Emu                   // x86-mode execution (Ref and VM.fe cold code)
	CatInterp                   // interpretation (VM.interp cold code)
	CatVMM                      // dispatch, lookup, chaining, mode switches
	NumCategories
)

var catNames = [NumCategories]string{
	"bbt-xlate", "sbt-xlate", "bbt-emu", "sbt-emu", "x86-emu", "interp", "vmm",
}

func (c Category) String() string { return catNames[c] }

// Config parameterizes one machine (Table 2 plus the §3.2 cost
// constants).
type Config struct {
	Strategy Strategy

	// HotThreshold is the region-entry count that triggers SBT (Eq. 2):
	// 8000 for BBT-based schemes, ~25 for interpretation.
	HotThreshold uint64

	// InterpToBBT is the entry count at which the three-stage strategy
	// promotes an interpreted block to a BBT translation (Eq. 2 applied
	// to the interpret→BBT transition: ΔBBT ≈ 2 interpreted-instruction
	// equivalents, so a handful of executions repay translation).
	InterpToBBT uint64

	// Translation and emulation costs, in cycles per x86 instruction.
	BBTCyclesPerInst    float64 // 83 software (VM.soft), 20 assisted (VM.be)
	BBTComplexCycles    float64 // software fallback cost per complex instruction
	SBTCyclesPerInst    float64 // ΔSBT ≈ 1674 native instrs at optimized-code IPC ≈ 880 cycles
	InterpCyclesPerInst float64 // interpreter cost
	DispatchCycles      float64 // VMM dispatch through the lookup table
	IndirectCycles      float64 // software indirect-target lookup per transition
	ProfilingCycles     float64 // embedded software profiling per BBT block execution
	ModeSwitchCycles    float64 // x86-mode <-> native-mode switch (VM.fe)
	CalloutCycles       float64 // VMM entry/exit around a complex-instruction callout

	// Pipeline parameters. MispredictPenaltyX86 applies while executing
	// in x86-mode (two extra decode stages, Table 2).
	Timing               timing.Params
	MispredictPenaltyX86 int

	// Code cache capacities (bytes).
	BBTCacheSize uint32
	SBTCacheSize uint32

	BBT bbt.Config
	SBT sbt.Config

	// BBBEntries sizes the hardware branch behavior buffer (VM.fe).
	BBBEntries int

	// JTLBEntries sizes the software jump-TLB fronting the dispatch
	// lookups (a host-side accelerator mirroring VM.fe's hardware
	// jump-TLB; it does not change simulated timing). <= 0 selects the
	// default size.
	JTLBEntries int

	// ShadowCap bounds the number of live shadow blocks (x86-mode /
	// interpreter decode state). At the cap, a clock (second-chance)
	// policy evicts a cold block; evictions are counted in Result.
	// <= 0 selects the default cap.
	ShadowCap int

	// Sampling of the startup curves: geometric spacing factor for
	// cycle-indexed samples.
	SampleGrowth float64

	// NoStartupSamples suppresses the startup-curve sample log entirely
	// (both the geometric cycle-indexed samples and the run-end
	// snapshot). Steady-state benchmarks set it so repeated Run calls
	// measure the dispatch path rather than sample bookkeeping; it has
	// no effect on any other reported counter.
	NoStartupSamples bool

	// WarmStart selects how a persisted translation snapshot attached
	// with VM.Restore enters the code caches (warm.go): WarmOff rejects
	// Restore (cold translation only, the historical behaviour and the
	// default), WarmLazy faults each translation in on its first
	// dispatch miss, WarmHybrid eagerly preloads the hottest
	// WarmEagerFraction of the snapshot (by saved retirement count) and
	// faults in the tail, WarmEager materializes everything up front.
	// The mode changes the simulated machine: restore costs below are
	// charged instead of translation costs, so results differ across
	// modes by design, and the field is part of every run key.
	WarmStart WarmStart

	// RestoreCyclesPerInst is the simulated VMM cost, per covered x86
	// instruction, of materializing one snapshot translation: mapping,
	// copying and address-patching already-translated code. An order of
	// magnitude below BBTCyclesPerInst (83 software) and three below
	// SBTCyclesPerInst (880): restoring skips decode, cracking and the
	// optimizer entirely.
	RestoreCyclesPerInst float64

	// RestoreFaultCycles is the fixed per-translation surcharge of a
	// lazy fault-in: the dispatch miss trapping into the VMM's restore
	// handler and finding the snapshot record. Eager preloading during
	// Restore pays only the bulk per-instruction cost.
	RestoreFaultCycles float64

	// WarmEagerFraction is the fraction (0..1] of snapshot translations
	// the hybrid mode preloads eagerly, hottest first by saved
	// retirement count.
	WarmEagerFraction float64

	// SwitchPeriod emulates context switches among competing tasks
	// (§1.1 multitasking): after the block that retires each multiple
	// of SwitchPeriod instructions, Run flushes the cache hierarchy and
	// resets the branch predictor, as if another task had run;
	// translations stay resident in concealed memory. 0 never switches.
	SwitchPeriod uint64
}

// WarmStart enumerates the persistent-translation warm-start modes
// (Config.WarmStart).
type WarmStart uint8

const (
	// WarmOff disables warm start: every translation is built cold.
	WarmOff WarmStart = iota
	// WarmLazy restores translations on first dispatch miss only.
	WarmLazy
	// WarmHybrid eagerly preloads the hottest WarmEagerFraction of the
	// snapshot at Restore, then faults in the tail lazily.
	WarmHybrid
	// WarmEager materializes the whole snapshot at Restore.
	WarmEager
)

var warmStartNames = [...]string{"off", "lazy", "hybrid", "eager"}

func (w WarmStart) String() string {
	if int(w) < len(warmStartNames) {
		return warmStartNames[w]
	}
	return fmt.Sprintf("WarmStart(%d)", uint8(w))
}

// ParseWarmStart resolves a mode name ("off", "lazy", "hybrid",
// "eager") to its WarmStart value.
func ParseWarmStart(s string) (WarmStart, error) {
	for i, name := range warmStartNames {
		if s == name {
			return WarmStart(i), nil
		}
	}
	return WarmOff, fmt.Errorf("vmm: unknown warm-start mode %q", s)
}

// DefaultConfig returns the baseline configuration for a strategy, using
// the paper's constants.
func DefaultConfig(s Strategy) Config {
	cfg := Config{
		Strategy:             s,
		HotThreshold:         8000,
		BBTCyclesPerInst:     83,
		BBTComplexCycles:     83,
		SBTCyclesPerInst:     880,
		InterpCyclesPerInst:  45,
		DispatchCycles:       30,
		IndirectCycles:       12,
		ProfilingCycles:      0.5,
		ModeSwitchCycles:     2,
		CalloutCycles:        24,
		Timing:               timing.DefaultParams,
		MispredictPenaltyX86: timing.DefaultParams.MispredictPenalty + 2,
		BBTCacheSize:         4 << 20,
		SBTCacheSize:         4 << 20,
		BBT:                  bbt.DefaultConfig,
		SBT:                  sbt.DefaultConfig,
		BBBEntries:           4096,
		JTLBEntries:          DefaultJTLBEntries,
		ShadowCap:            DefaultShadowCap,
		SampleGrowth:         1.25,
		RestoreCyclesPerInst: 8,
		RestoreFaultCycles:   200,
		WarmEagerFraction:    0.25,
	}
	cfg.InterpToBBT = 4
	switch s {
	case StratBE:
		cfg.BBTCyclesPerInst = 20
	case StratInterp:
		cfg.HotThreshold = 25
	}
	return cfg
}

// Sample is one point of the startup curve.
type Sample struct {
	Cycles  float64
	Instrs  uint64
	Cat     [NumCategories]float64
	XltBusy float64 // cumulative XLTx86 busy cycles (VM.be)
}

// AggregateIPC returns the aggregate (cumulative) x86 IPC at the sample.
func (s Sample) AggregateIPC() float64 {
	if s.Cycles <= 0 {
		return 0
	}
	return float64(s.Instrs) / s.Cycles
}

// Result collects everything an experiment needs from one run.
//
// Results round-trip through the persistent run store (docs/runstore.md):
// internal/experiments encodes every field below into a CRC-guarded
// CRUN2 record and decodes it back bit-exactly. When adding, removing
// or reordering fields here, update appendResult/readResult in
// internal/experiments/record.go and bump runSchema (record.go) so
// existing stores miss (and re-simulate) instead of misreading old
// records.
type Result struct {
	Strategy Strategy
	Halted   bool
	Cycles   float64
	Instrs   uint64
	Cat      [NumCategories]float64
	Samples  []Sample

	// Dynamic micro-op statistics by translation kind.
	BBTUops, BBTEntities uint64
	SBTUops, SBTEntities uint64

	// Static translation statistics.
	BBTTranslations, SBTTranslations   uint64
	BBTX86Translated, SBTX86Translated uint64 // static x86 instrs translated

	// Code-cache flushes (capacity overflows). Flushes never exceed
	// translations, so 32 bits hold any budget the harness runs.
	BBTFlushes, SBTFlushes uint32

	// Hardware assist statistics.
	XltInvocations uint64
	XltBusyCycles  uint64
	X86ModeCycles  float64 // cycles with the first-level decoder active

	// Complex-instruction callouts executed.
	Callouts uint64

	// Software jump-TLB behaviour on the dispatch slow path (host-side
	// accelerator statistics; hits and misses pay identical simulated
	// dispatch cost).
	JTLBHits, JTLBMisses uint64

	// Shadow blocks evicted by the bounded shadow table.
	ShadowEvictions uint64

	// Hotspot coverage: x86 instructions retired from SBT code.
	SBTInstrs uint64
	// Instructions retired from BBT code / x86-mode / interpreter.
	BBTInstrs    uint64
	X86Instrs    uint64
	InterpInstrs uint64

	// Warm-start restore statistics (warm.go): translations
	// materialized from a persisted snapshot — eager preloads plus lazy
	// fault-ins — and the static x86 instructions they cover. Zero
	// unless the run restored a snapshot (VM.Restore).
	RestoredTranslations uint64
	RestoredX86          uint64

	// Metrics is the run's observability snapshot (obs.go). It is nil
	// unless a recorder was attached with SetObserver: uninstrumented
	// runs — including every determinism comparison — see exactly the
	// pre-observability Result.
	Metrics obs.Snapshot

	// Attrib is the run's cycle-attribution snapshot (obs/attrib). It
	// is nil unless the attached recorder carried an attribution
	// profile (Observer.EnableAttrib); its categories sum exactly to
	// Cycles.
	Attrib *attrib.Snapshot

	// Timeline is the run's interval-sampled timeline — the attached
	// recorder's, or one read back from the run store — and nil unless
	// the recorder carried one (Observer.EnableTimeline). A pointer, so
	// a plain Result stays in its allocation size class.
	Timeline *obs.Timeline
}

// Experiments keep one Result per run for the life of the process, and
// 320 bytes is an allocation size class: the record must not grow.
var _ [320]byte = [unsafe.Sizeof(Result{})]byte{}

// IPC returns the aggregate x86 IPC of the run.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / r.Cycles
}

// HotspotCoverage returns the fraction of retired instructions that came
// from optimized superblock code.
func (r *Result) HotspotCoverage() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.SBTInstrs) / float64(r.Instrs)
}

// detector abstracts the two hotspot-detection mechanisms
// (profile.Software and profile.BBB).
type detector interface {
	// RecordEntry notes one execution of the region entered at pc with
	// the given instruction count, returning true when the region has
	// just crossed the hot threshold (exactly once per region).
	RecordEntry(pc uint32, instrs int) bool
	// Clear forgets every region.
	Clear()
}

// newDetector builds the right detector for the strategy.
func newDetector(cfg *Config) detector {
	if cfg.Strategy == StratFE {
		return profile.NewBBB(cfg.BBBEntries, cfg.HotThreshold)
	}
	return profile.NewSoftware(cfg.HotThreshold)
}

// Concealed-memory layout: code caches live above the architected
// address space used by workloads.
const (
	bbtCacheBase = 0xC0000000
	sbtCacheBase = 0xD0000000
)
