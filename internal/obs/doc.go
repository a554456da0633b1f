// Package obs is the simulator's observability layer: a
// zero-allocation-on-hot-path metrics registry (counters, gauges,
// histograms with fixed bucket layouts) and a stream of host-side
// lifecycle events, both designed so that *disabled* observability
// costs essentially nothing on the simulation hot loops.
//
// The paper this repository reproduces (Hu & Smith, "Reducing Startup
// Time in Co-Designed Virtual Machines", ISCA 2006) argues from *where*
// startup cycles go — Eq. 1's MBBT·ΔBBT term, the per-category
// breakdown of Fig. 10. The simulated machine's side of that question
// is answered from each run's Result: its metric snapshot, its
// interval timeline and its cycle attribution, which a cold and a warm
// pass report alike. The event stream is the host's side: where this
// process spent its wall time — each run's span, run-store outcomes,
// job-service transitions — on one host-nanosecond clock. Its parts:
//
//   - Registry / Counter / Gauge / Histogram — typed metrics with
//     atomic operations (safe to read live from the /runs endpoint
//     while the owning run mutates them). Registration allocates;
//     operations on registered metrics do not.
//   - Event / EventKind / Sink — typed host-side records (run spans,
//     run-store hits/misses and health, job-service transitions),
//     stamped with the observer's host clock and pushed to a pluggable
//     sink. TraceSink renders Chrome trace-event JSON; CollectSink
//     captures events in memory for tests.
//   - Observer / Recorder — the wiring layer. An Observer is
//     process-wide (one event sink, process-level counters, an
//     aggregate view over runs); Observer.NewRun mints one Recorder
//     per simulation run with its own Registry, whose Snapshot is
//     attached to the run's Result and persisted with it in the run
//     store's CRUN2 records.
//   - Timeline — interval sampling of a run (timeline.go), left on the
//     run's Result and persisted with it.
//   - Observer.Note — the Results the reports consumed, from which the
//     flamegraph and timeline exports are written (notes.go).
//
// The cardinal rule, enforced by tests in internal/vmm: observability
// is purely *observational*. No emission site reads back metric or
// event state to make a simulation decision, so instrumented and
// uninstrumented runs produce byte-identical reported results, and a
// run reports the same metrics whatever else is armed.
//
// OBSERVABILITY.md at the repository root documents every metric and
// event kind — name, unit, emission site, and cost when enabled and
// disabled — and the cmd/vmsim flags (-metrics, -trace, -timeline,
// -flamegraph, -http) that drive this package from the CLI.
package obs
