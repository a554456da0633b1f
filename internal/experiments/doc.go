// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness runs the required machine
// configurations over the Winstone2004-like workload suite and emits the
// same rows/series the paper reports (normalized aggregate-IPC startup
// curves, frequency histograms, breakeven points, cycle breakdowns and
// hardware-assist activity). DESIGN.md §4 maps experiment IDs to these
// functions; EXPERIMENTS.md records measured-vs-paper values.
//
// # Harness index
//
//   - Startup curves (experiments.go): Fig2 (software stages, §2) and
//     Fig8 (hardware assists, §5) normalized aggregate-IPC curves.
//   - Profiles and breakdowns (reports.go): Fig3 execution-frequency
//     profile (§2), Sec32Overhead (Eq. 1 decomposition, §3.2), Fig9
//     breakeven points, Fig10 cycle breakdowns and Fig11 assist
//     activity (§5).
//   - Motivation (motivation.go): ColdStart and ContextSwitch transient
//     studies (§1).
//   - Ablation (ablation.go): Table1, Table2 and hot-threshold sweeps
//     around the Eq. 2 balance point.
//   - Extensions (extensions.go, staged.go): PersistentStartup,
//     CodeCachePressure, DeltaBBTSweep — non-paper scenario studies.
//
// # Execution model
//
// Every simulated (config, app, trace length) triple is deterministic,
// so results are shared aggressively (runcache.go): an in-process
// memoization serves repeated requests within a sweep, and an optional
// persistent run store (internal/store; DESIGN.md §8) shares results
// across processes via content-addressed CRUN2 records with
// single-flight locking. The (app × model) grid runs on a worker pool
// unless Options.Sequential is set; reports are byte-identical either
// way.
//
// Attaching an obs.Observer (Options.Obs) mints one metrics recorder per
// simulated run, streams run spans and store events to the observer's
// sink, and counts store hits/misses on the observer's process-wide
// registry — without changing any report (see OBSERVABILITY.md).
package experiments
