// Package codesignvm is a library-scale reproduction of "Reducing
// Startup Time in Co-Designed Virtual Machines" (Hu & Smith, ISCA 2006).
//
// It implements the paper's entire system stack in pure Go:
//
//   - an architected CISC (IA-32 subset) ISA with assembler, decoder and
//     interpreter;
//   - the implementation "fusible" micro-op ISA with its 16/32-bit
//     binary encoding and macro-op fusion rules;
//   - the staged dynamic binary translation system: basic-block
//     translator (BBT), superblock translator/optimizer (SBT) with
//     reorder-and-fuse macro-op pairing (plus optional copy-propagation
//     and dead-code-elimination extensions), concealed code caches with
//     chaining and persistence, and the VMM runtime;
//   - the two proposed hardware assists: the XLTx86 backend functional
//     unit (Table 1) and the dual-mode frontend decoders, plus the
//     Merten-style branch behavior buffer used for hotspot detection;
//   - a persistent-dataflow superscalar timing model with the Table 2
//     cache hierarchy and branch predictors;
//   - a synthetic Winstone2004-like workload suite, and one experiment
//     harness per table/figure of the paper's evaluation.
//
// # Quick start
//
//	prog, _ := codesignvm.LoadWorkload("Word", 25)
//	res, _ := codesignvm.Run(codesignvm.VMBE, prog, 20_000_000)
//	fmt.Printf("aggregate IPC %.3f, hotspot coverage %.1f%%\n",
//	    res.IPC(), 100*res.HotspotCoverage())
//
// The five machine models of the paper are Ref (a conventional
// superscalar), VMSoft, VMBE, VMFE and VMInterp. Experiment harnesses
// (Figure2 … Figure11, Overhead, OptimizerAblation, XLTCharacterization)
// regenerate the paper's tables and figures; see EXPERIMENTS.md for
// measured-versus-paper results.
package codesignvm

import (
	"io"
	"net/http"

	"codesignvm/internal/codecache"
	"codesignvm/internal/experiments"
	"codesignvm/internal/jobs"
	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/model"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// Core types of the public API.
type (
	// Model names one of the paper's five machine configurations.
	Model = machine.Model
	// Config parameterizes a machine (Table 2 plus §3.2 cost constants).
	Config = vmm.Config
	// Result is the outcome of one simulation run.
	Result = vmm.Result
	// Sample is one point of a startup curve.
	Sample = vmm.Sample
	// Category buckets simulated cycles (translation, emulation, VMM…).
	Category = vmm.Category
	// Program is a generated benchmark binary plus metadata.
	Program = workload.Program
	// WorkloadParams characterizes a synthetic application.
	WorkloadParams = workload.Params
	// VM is a single simulated machine instance (for incremental runs).
	VM = vmm.VM
	// Options scopes an experiment (scale, trace lengths, apps).
	Options = experiments.Options
	// Histogram is the Fig. 3 execution-frequency profile.
	Histogram = metrics.Histogram
	// Overhead is the Eq. 1 translation-overhead decomposition.
	Overhead = model.Overhead
	// Scenario is one of the §3.1 startup scenarios.
	Scenario = model.Scenario
)

// Machine models (Table 2).
const (
	Ref      = machine.Ref      // conventional superscalar reference
	VMSoft   = machine.VMSoft   // software BBT + SBT
	VMBE     = machine.VMBE     // XLTx86 backend assist + SBT
	VMFE     = machine.VMFE     // dual-mode frontend decoders + SBT
	VMInterp = machine.VMInterp // interpretation + SBT (Fig. 2)
	// VMStaged3 is the Efficeon-style three-stage extension:
	// interpret → BBT → SBT.
	VMStaged3 = machine.VMStaged3
)

// Cycle categories (Fig. 10).
const (
	CatBBTXlate = vmm.CatBBTXlate
	CatSBTXlate = vmm.CatSBTXlate
	CatBBTEmu   = vmm.CatBBTEmu
	CatSBTEmu   = vmm.CatSBTEmu
	CatX86Emu   = vmm.CatX86Emu
	CatInterp   = vmm.CatInterp
	CatVMM      = vmm.CatVMM
	// NumCategories is the size of the Fig. 10 category set.
	NumCategories = vmm.NumCategories
)

// Startup scenarios (§3.1).
const (
	DiskStartup   = model.DiskStartup
	MemoryStartup = model.MemoryStartup
	CodeCacheWarm = model.CodeCacheWarm
	SteadyState   = model.SteadyState
)

// Models lists the five machine configurations.
func Models() []Model {
	out := make([]Model, 0, machine.NumModels)
	for m := machine.Model(0); m < machine.NumModels; m++ {
		out = append(out, m)
	}
	return out
}

// ModelByName resolves "Ref", "VM.soft", "VM.be", "VM.fe" or "VM.interp".
func ModelByName(name string) (Model, error) { return machine.ByName(name) }

// DefaultConfig returns a model's baseline configuration.
func DefaultConfig(m Model) Config { return machine.Config(m) }

// Workloads lists the ten Winstone2004-like application names.
func Workloads() []string { return workload.Names() }

// WorkloadParameters returns the calibrated parameters of a named
// application.
func WorkloadParameters(name string) (WorkloadParams, error) { return workload.ByName(name) }

// LoadWorkload generates the named benchmark at the given scale divisor
// (1 = paper-sized; 25 = default experiment scale).
func LoadWorkload(name string, scale int) (*Program, error) { return workload.App(name, scale) }

// GenerateWorkload builds a benchmark from explicit parameters.
func GenerateWorkload(p WorkloadParams, scale int) (*Program, error) {
	return workload.Generate(p, scale)
}

// Run simulates prog on model m for up to maxInstrs architected
// instructions under the paper's memory-startup scenario.
func Run(m Model, prog *Program, maxInstrs uint64) (*Result, error) {
	return machine.Run(m, prog, maxInstrs)
}

// RunConfig simulates with an explicit configuration.
func RunConfig(cfg Config, prog *Program, maxInstrs uint64) (*Result, error) {
	return machine.RunConfig(cfg, prog, maxInstrs)
}

// Observability layer (internal/obs; see OBSERVABILITY.md).

type (
	// Observer is the process-wide observability root: one event sink,
	// process-level counters, and an aggregate view over per-run
	// metric registries. A nil *Observer means "disabled" everywhere.
	Observer = obs.Observer
	// Recorder is one run's observability handle (per-run metrics plus
	// event emission); mint one per run with Observer.NewRun.
	Recorder = obs.Recorder
	// MetricsSnapshot is a point-in-time copy of a metric registry; the
	// Result.Metrics field carries one per instrumented run.
	MetricsSnapshot = obs.Snapshot
	// Event is one typed VM lifecycle record.
	Event = obs.Event
	// EventKind discriminates lifecycle events (BBT translate, SBT
	// promotion, cache flush, …).
	EventKind = obs.EventKind
	// EventSink receives emitted events.
	EventSink = obs.Sink
	// JSONLSink renders events as self-describing JSON Lines.
	JSONLSink = obs.JSONLSink
	// CollectSink captures events in memory (tests, tooling).
	CollectSink = obs.CollectSink
	// TraceSink renders the event stream as Chrome trace-event JSON
	// viewable in Perfetto; call Flush when done.
	TraceSink = obs.TraceSink
	// TimelineSpec configures interval sampling (Observer.EnableTimeline).
	TimelineSpec = obs.TimelineSpec
	// Timeline is one run's allocation-bounded sequence of interval
	// snapshots (Recorder.Timeline).
	Timeline = obs.Timeline
	// TimeSlice is one cumulative timeline snapshot.
	TimeSlice = obs.TimeSlice
	// TimelineRow is one exported per-interval timeline row.
	TimelineRow = obs.TimelineRow
)

// Timeline sampling defaults (TimelineSpec zero values select these).
const (
	DefaultTimelineInterval = obs.DefaultTimelineInterval
	DefaultTimelineSlices   = obs.DefaultTimelineSlices
)

// NewObserver returns an observer emitting to sink (nil sink: metrics
// only, no event stream).
func NewObserver(sink EventSink) *Observer { return obs.NewObserver(sink) }

// NewJSONLSink returns an event sink writing JSON Lines to w; call
// Flush when done.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewCollectSink returns an in-memory event sink.
func NewCollectSink() *CollectSink { return obs.NewCollectSink() }

// NewTraceSink returns an event sink writing one Chrome trace-event
// JSON document to w (load in ui.perfetto.dev or chrome://tracing);
// call Flush when done — the output is valid JSON only after Flush.
func NewTraceSink(w io.Writer) *TraceSink { return obs.NewTraceSink(w) }

// WriteTimelinesCSV renders the timelines of the given runs (skipping
// runs without one) as one CSV table; see OBSERVABILITY.md for the
// column reference.
func WriteTimelinesCSV(w io.Writer, runs []*Recorder) error {
	return obs.WriteTimelinesCSV(w, runs)
}

// WriteTimelinesJSON renders the same timelines as JSON.
func WriteTimelinesJSON(w io.Writer, runs []*Recorder) error {
	return obs.WriteTimelinesJSON(w, runs)
}

// NewIntrospectionHandler returns an http.Handler serving the
// observer's live introspection endpoints (/metrics OpenMetrics text,
// /runs JSON, /healthz); info is attached to the /runs response. This
// is what vmsim -http mounts (plus net/http/pprof).
func NewIntrospectionHandler(o *Observer, info map[string]string) http.Handler {
	return obs.NewHTTPHandler(o, info)
}

// RunConfigObserved simulates with an observability recorder attached:
// events flow to the recorder's sink during the run and the Result
// carries the metric snapshot. A nil recorder behaves like RunConfig.
func RunConfigObserved(cfg Config, prog *Program, maxInstrs uint64, rec *Recorder) (*Result, error) {
	return machine.RunConfigObserved(cfg, prog, maxInstrs, rec)
}

// NewVM builds a VM over the program without running it, for incremental
// simulation (e.g. flush caches mid-run to study context-switch
// scenarios).
func NewVM(m Model, prog *Program) *VM { return machine.NewVM(m, prog) }

// NewConfiguredVM builds a VM from an explicit configuration without
// running it (e.g. to Restore a warm-start snapshot before Run).
func NewConfiguredVM(cfg Config, prog *Program) *VM {
	return vmm.New(cfg, prog.Memory(), prog.InitState())
}

// Warm start: persistent translation caches with lazy restore.

type (
	// WarmStart selects the translation-cache restore policy of a run
	// (off, lazy fault-in, hybrid hot-head preload, eager full preload).
	WarmStart = vmm.WarmStart
	// Snapshot is a parsed CCVM2 translation-cache snapshot with a lazy
	// per-translation index (produced by VM.SaveTranslations).
	Snapshot = codecache.Snapshot
)

// Warm-start restore policies (Config.WarmStart).
const (
	WarmOff    = vmm.WarmOff
	WarmLazy   = vmm.WarmLazy
	WarmHybrid = vmm.WarmHybrid
	WarmEager  = vmm.WarmEager
)

// ParseWarmStart resolves "off", "lazy", "hybrid" or "eager".
func ParseWarmStart(s string) (WarmStart, error) { return vmm.ParseWarmStart(s) }

// ParseSnapshot validates and indexes a serialized translation
// snapshot (the bytes VM.SaveTranslations wrote) without decoding the
// translations; VM.Restore faults them in per the configured policy.
func ParseSnapshot(data []byte) (*Snapshot, error) { return codecache.ParseSnapshot(data) }

// RunConfigWarm is RunConfigObserved with an optional warm-start
// snapshot restored (per cfg.WarmStart) before the run begins.
func RunConfigWarm(cfg Config, prog *Program, maxInstrs uint64, rec *Recorder, snap *Snapshot) (*Result, error) {
	return machine.RunConfigWarm(cfg, prog, maxInstrs, rec, snap)
}

// Cycle attribution (internal/obs/attrib; see OBSERVABILITY.md).

type (
	// AttribSpec parameterizes cycle attribution: the x86 region
	// bucketing and the instruction milestones of the phase breakdown
	// (Observer.EnableAttrib).
	AttribSpec = attrib.Spec
	// AttribCategory is one bucket of the attribution taxonomy
	// (interpret, bbt-translate, …, bpred-stall).
	AttribCategory = attrib.Category
	// AttribSnapshot is one run's immutable attribution result; the
	// per-category cycles sum exactly to the run's simulated total
	// (Result.Attrib).
	AttribSnapshot = attrib.Snapshot
	// AttribPhase is one cumulative milestone row of a snapshot.
	AttribPhase = attrib.Phase
	// AttribRegion is one non-empty x86 region of a snapshot.
	AttribRegion = attrib.RegionCycles
)

// NumAttribCategories is the size of the attribution taxonomy.
const NumAttribCategories = attrib.NumCategories

// ParseAttribCategory resolves an attribution category by name
// ("interpret", "bbt-translate", …).
func ParseAttribCategory(s string) (AttribCategory, bool) { return attrib.ParseCategory(s) }

// MergeAttrib merges attribution snapshots of the same spec (summing
// categories, regions and phase rows); pass runs in a fixed order for
// deterministic floating-point accumulation.
func MergeAttrib(snaps ...*AttribSnapshot) *AttribSnapshot { return attrib.Merge(snaps...) }

// DefaultAttribSpec returns the attribution spec the phases figure
// uses: workload code-segment regions and milestones at fixed
// fractions of the given instruction budget.
func DefaultAttribSpec(longInstrs uint64) AttribSpec {
	return experiments.DefaultAttribSpec(longInstrs)
}

// Startup-curve analysis helpers.

// SteadyIPC estimates steady-state IPC from the tail of a run.
func SteadyIPC(samples []Sample, frac float64) float64 { return metrics.SteadyIPC(samples, frac) }

// Breakeven returns the cycle count at which vm catches ref (Fig. 9).
func Breakeven(ref, vm []Sample) (float64, bool) { return metrics.Breakeven(ref, vm) }

// InstrsAt interpolates cumulative retired instructions at a cycle count.
func InstrsAt(samples []Sample, cycles float64) float64 { return metrics.InstrsAt(samples, cycles) }

// HotThreshold evaluates Eq. 2: N = ΔSBT / (p − 1).
func HotThreshold(deltaSBT, speedup float64) float64 { return model.HotThreshold(deltaSBT, speedup) }

// EstimateScenarioCycles evaluates the §3.1 startup-scenario model.
func EstimateScenarioCycles(s Scenario, p model.ScenarioParams) float64 {
	return model.EstimateCycles(s, p)
}

// ScenarioParams feeds EstimateScenarioCycles.
type ScenarioParams = model.ScenarioParams

// PaperOverhead returns the §3.2 Eq. 1 constants.
func PaperOverhead() Overhead { return model.PaperOverhead() }

// Experiment harnesses (one per table/figure; see DESIGN.md §4).

// StartupCurves is the Fig. 2 / Fig. 8 report type.
type StartupCurves = experiments.StartupCurves

// Figure2 reproduces Fig. 2 (software staged VMs vs the reference).
func Figure2(opt Options) (*StartupCurves, error) { return experiments.Fig2(opt) }

// Figure3 reproduces Fig. 3 (execution-frequency profile).
func Figure3(opt Options) (*experiments.Fig3Report, error) { return experiments.Fig3(opt) }

// Figure8 reproduces Fig. 8 (startup with hardware assists).
func Figure8(opt Options) (*StartupCurves, error) { return experiments.Fig8(opt) }

// Figure9 reproduces Fig. 9 (per-benchmark breakeven points).
func Figure9(opt Options) (*experiments.Fig9Report, error) { return experiments.Fig9(opt) }

// Figure10 reproduces Fig. 10 (VM.be cycle breakdown).
func Figure10(opt Options) (*experiments.Fig10Report, error) { return experiments.Fig10(opt) }

// Figure11 reproduces Fig. 11 (x86-decode hardware activity).
func Figure11(opt Options) (*experiments.Fig11Report, error) { return experiments.Fig11(opt) }

// MeasureOverhead reproduces the §3.2 Eq. 1 measurement.
func MeasureOverhead(opt Options) (*experiments.OverheadReport, error) {
	return experiments.Sec32Overhead(opt)
}

// OptimizerAblation quantifies each SBT optimization pass.
func OptimizerAblation(opt Options) (*experiments.AblationReport, error) {
	return experiments.Ablation(opt)
}

// XLTCharacterization exercises the Table 1 instruction on a random
// stream.
func XLTCharacterization(n int, seed int64) (*experiments.Table1Report, error) {
	return experiments.Table1(n, seed)
}

// PersistentStartupExperiment measures FX!32-style translation reuse
// (extension experiment; see DESIGN.md).
func PersistentStartupExperiment(opt Options) (*experiments.PersistReport, error) {
	return experiments.PersistentStartup(opt)
}

// WarmStartCurves is the warm-start startup-figure report type.
type WarmStartCurves = experiments.WarmStartCurves

// WarmStartExperiment runs the warm-start startup figure: cold VM.soft
// vs lazy/hybrid/eager persistent-cache restore vs Ref (DESIGN.md §10).
func WarmStartExperiment(opt Options) (*WarmStartCurves, error) {
	return experiments.WarmStartFig(opt)
}

// PhasesCurves is the phase-attribution figure's report type.
type PhasesCurves = experiments.PhasesCurves

// PhasesExperiment runs the phase-attribution figure: the startup
// transient of cold vs warm-started VM.soft decomposed by attribution
// category at each instruction milestone (OBSERVABILITY.md).
func PhasesExperiment(opt Options) (*PhasesCurves, error) {
	return experiments.PhasesFig(opt)
}

// CodeCachePressureExperiment sweeps code-cache capacities (extension
// experiment quantifying the paper's §1.1 multitasking concern).
func CodeCachePressureExperiment(opt Options, app string, sizes []uint32) (*experiments.PressureReport, error) {
	return experiments.CodeCachePressure(opt, app, sizes)
}

// DumpTranslations renders the hottest translations of a short run as
// annotated x86→micro-op listings (inspection tooling).
func DumpTranslations(app string, m Model, scale int, instrs uint64, top int) (string, error) {
	return experiments.DumpTranslations(app, m, scale, instrs, top)
}

// ColdStartExperiment runs the OS-boot-like workload across all machine
// models (§1.1 motivation: cold-code-dominated phases).
func ColdStartExperiment(opt Options) (*experiments.ColdStartReport, error) {
	return experiments.ColdStart(opt)
}

// ContextSwitchExperiment sweeps context-switch frequency (§1.1
// motivation: multitasking server-like systems).
func ContextSwitchExperiment(opt Options, app string, periods []uint64) (*experiments.SwitchReport, error) {
	return experiments.ContextSwitch(opt, app, periods)
}

// StagedComparisonExperiment compares emulation-staging strategies:
// interpretation+SBT, three-stage interp→BBT→SBT, and two-stage BBT+SBT.
func StagedComparisonExperiment(opt Options) (*StartupCurves, error) {
	return experiments.StagedComparison(opt)
}

// DeltaBBTSweepExperiment varies the BBT translation cost between the
// software and fully-assisted values.
func DeltaBBTSweepExperiment(opt Options, app string, deltas []float64) (*experiments.DeltaReport, error) {
	return experiments.DeltaBBTSweep(opt, app, deltas)
}

// Named experiment registry: the dispatch table shared by cmd/vmsim's
// -exp flag and the async job service, so both produce byte-identical
// reports for the same request.

// ExperimentNames lists every report experiment runnable by name.
func ExperimentNames() []string { return experiments.ExperimentNames() }

// ExpandExperiment resolves the composites: "sweep" → the six paper
// figures, "all" → every report experiment; other names pass through.
func ExpandExperiment(name string) []string { return experiments.ExpandExperiment(name) }

// RunExperiment executes one named report experiment and returns its
// formatted report text — exactly what vmsim prints for the same
// flags. app parameterizes the app-scoped extension experiments
// (pressure, ctxswitch, deltasweep); empty selects "Word".
func RunExperiment(name string, opt Options, app string) (string, error) {
	return experiments.RunExperiment(name, opt, app)
}

// Async job service (internal/jobs; HTTP reference in docs/api.md).

type (
	// JobSpec is one submitted workload: experiment name plus grid
	// parameters (apps, scale, budget, hot threshold).
	JobSpec = jobs.Spec
	// JobState is a job's lifecycle state (queued, running, done,
	// failed, cancelled).
	JobState = jobs.State
	// Job is one submitted workload moving through the manager.
	Job = jobs.Job
	// JobStatus is a job's externally visible snapshot (the
	// GET /jobs/{id} response body).
	JobStatus = jobs.Status
	// JobManager owns the job table, bounded queue and worker pool.
	JobManager = jobs.Manager
	// JobManagerConfig parameterizes NewJobManager.
	JobManagerConfig = jobs.Config
	// JobAPI serves the /jobs HTTP endpoints over a manager.
	JobAPI = jobs.API
)

// NewJobManager starts an async job manager: jobs execute the named
// experiments through the crash-safe run store (exactly-once
// simulation, duplicate-spec dedupe). The worker pool is live on
// return; stop it with Manager.Drain.
func NewJobManager(cfg JobManagerConfig) (*JobManager, error) { return jobs.NewManager(cfg) }

// NewJobAPI wraps a job manager with the HTTP surface (POST/GET/DELETE
// /jobs…; docs/api.md). rate/burst configure per-client submission
// token buckets; mount it with Register on the introspection mux.
func NewJobAPI(m *JobManager, rate, burst float64) *JobAPI { return jobs.NewAPI(m, rate, burst) }

// Report formatters (text tables matching the paper's presentation).
var (
	FormatStartup   = experiments.FormatStartup
	FormatFig3      = experiments.FormatFig3
	FormatFig9      = experiments.FormatFig9
	FormatFig10     = experiments.FormatFig10
	FormatFig11     = experiments.FormatFig11
	FormatOverhead  = experiments.FormatOverhead
	FormatAblation  = experiments.FormatAblation
	FormatTable1    = experiments.FormatTable1
	FormatTable2    = experiments.FormatTable2
	FormatPersist   = experiments.FormatPersist
	FormatWarmStart = experiments.FormatWarmStart
	FormatPressure  = experiments.FormatPressure
	FormatColdStart = experiments.FormatColdStart
	FormatSwitch    = experiments.FormatSwitch
	FormatDelta     = experiments.FormatDelta
	FormatPhases    = experiments.FormatPhases
)

// Low-level access for tooling: the architected ISA package types needed
// to construct custom programs.
type (
	// Asm is the IA-32 subset assembler.
	Asm = x86.Asm
	// ArchState is the architected register state.
	ArchState = x86.State
	// ArchMemory is the sparse 32-bit address space.
	ArchMemory = x86.Memory
)

// NewAsm returns an assembler emitting at the given base address.
func NewAsm(base uint32) *Asm { return x86.NewAsm(base) }

// NewMemory returns an empty architected address space.
func NewMemory() *ArchMemory { return x86.NewMemory() }
