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
// superscalar), VMSoft, VMBE, VMFE and VMInterp. RunExperiment
// regenerates any of the paper's tables and figures by name, as
// formatted text; Figure2 and Figure8 return the startup-curve data
// itself. See EXPERIMENTS.md for measured-versus-paper results.
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

// ModelByName resolves "Ref", "VM.soft", "VM.be", "VM.fe" or "VM.interp".
func ModelByName(name string) (Model, error) { return machine.ByName(name) }

// DefaultConfig returns a model's baseline configuration.
func DefaultConfig(m Model) Config { return machine.Config(m) }

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
	// Event is one typed host-side lifecycle record.
	Event = obs.Event
	// EventKind discriminates lifecycle events (run span, store
	// hit/miss, job transitions, …).
	EventKind = obs.EventKind
	// EventSink receives emitted events.
	EventSink = obs.Sink
	// TraceSink renders the event stream as Chrome trace-event JSON on
	// the host clock, viewable in Perfetto; call Flush when done.
	TraceSink = obs.TraceSink
	// Timeline is one run's allocation-bounded sequence of interval
	// snapshots (Recorder.Timeline).
	Timeline = obs.Timeline
	// TimeSlice is one cumulative timeline snapshot.
	TimeSlice = obs.TimeSlice
)

// NewObserver returns an observer emitting to sink (nil sink: metrics
// only, no event stream).
func NewObserver(sink EventSink) *Observer { return obs.NewObserver(sink) }

// NewTraceSink returns an event sink writing one Chrome trace-event
// JSON document to w (load in ui.perfetto.dev or chrome://tracing);
// call Flush when done — the output is valid JSON only after Flush.
func NewTraceSink(w io.Writer) *TraceSink { return obs.NewTraceSink(w) }

// NewIntrospectionHandler returns an http.Handler serving the
// observer's live introspection endpoints (/metrics OpenMetrics text,
// /runs JSON, /healthz); info is attached to the /runs response. This
// is what vmsim -http mounts (plus net/http/pprof).
func NewIntrospectionHandler(o *Observer, info map[string]string) http.Handler {
	return obs.NewHTTPHandler(o, info)
}

// RunConfigObserved simulates with an observability recorder attached:
// the run's host span goes to the recorder's sink and the Result
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
)

// NumAttribCategories is the size of the attribution taxonomy.
const NumAttribCategories = attrib.NumCategories

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

// Startup-curve harnesses. Every other table and figure is reached by
// name through RunExperiment (DESIGN.md §4 maps IDs to experiments).

// StartupCurves is the Fig. 2 / Fig. 8 report type.
type StartupCurves = experiments.StartupCurves

// Figure2 reproduces Fig. 2 (software staged VMs vs the reference).
func Figure2(opt Options) (*StartupCurves, error) { return experiments.Fig2(opt) }

// Figure8 reproduces Fig. 8 (startup with hardware assists).
func Figure8(opt Options) (*StartupCurves, error) { return experiments.Fig8(opt) }

// DumpTranslations renders the hottest translations of a short run as
// annotated x86→micro-op listings (inspection tooling).
func DumpTranslations(app string, m Model, scale int, instrs uint64, top int) (string, error) {
	return experiments.DumpTranslations(app, m, scale, instrs, top)
}

// Named experiment registry: every report vmsim prints and every job
// returns renders through it (RunSpec), so both produce byte-identical
// reports for the same request.

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

// RunSpec renders a validated job spec's reports in order under the run
// environment env, each with its trailing blank line handed to emit:
// a job's result and vmsim's stdout are both this stream.
func RunSpec(spec JobSpec, env Options, emit func(exp, section string) error) error {
	return jobs.Run(spec, env, emit)
}

// NewJobAPI wraps a job manager with the HTTP surface (POST/GET/DELETE
// /jobs…; docs/api.md). rate/burst configure per-client submission
// token buckets; mount it with Register on the introspection mux.
func NewJobAPI(m *JobManager, rate, burst float64) *JobAPI { return jobs.NewAPI(m, rate, burst) }

// FormatStartup renders a startup-curve report (Figure2, Figure8) as a
// text table; RunExperiment returns every report already formatted.
var FormatStartup = experiments.FormatStartup

// ArchMemory is the sparse 32-bit architected address space
// (Program.Memory, VM.Mem).
type ArchMemory = x86.Memory
