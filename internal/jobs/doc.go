// Package jobs is the async job service over the experiment harnesses:
// the front door that turns the simulator from a CLI tool into a
// long-running service ("sweep-as-a-service", ROADMAP).
//
// A Manager owns a bounded job queue and a fixed worker pool. Clients
// submit a Spec — a named report experiment plus its grid parameters
// (apps, scale, instruction budget, hot threshold) — and poll the job
// asynchronously; finished jobs stream the report text, byte-identical
// to cmd/vmsim's stdout for the same spec, because both render it
// through Run and both check it with Spec.Validate.
//
// The execution path is deliberately thin: every job runs through
// internal/experiments with Options.Store set to the manager's
// crash-safe run store, so the service inherits the properties the
// store already proves — exactly-once simulation under concurrent
// duplicate submissions (in-process single-flight cache slots plus the
// store's heartbeat lock protocol) and free dedupe of identical specs
// via the sha256 run key (docs/runstore.md). Submitting the same spec
// twice while the first job is still active returns the first job
// (idempotent submission, unless Spec.Force); submitting it after
// completion creates a new job that finishes almost instantly from
// the caches.
//
// # Lifecycle
//
// Jobs move queued → running → one of done / failed / cancelled:
//
//	POST /jobs            → queued   (409/429/503 when rejected)
//	worker picks it up    → running
//	runner returns        → done (result available) or failed
//	DELETE /jobs/{id}     → cancelled (immediately when queued;
//	                        via context cancellation when running —
//	                        Options.Ctx aborts store lock waits and
//	                        stops the grid picking up new tasks)
//
// Backpressure is explicit: a full queue rejects the submission with
// ErrQueueFull (HTTP 429 + Retry-After), per-client token buckets
// throttle submission bursts (HTTP 429), and a draining manager —
// graceful shutdown, Manager.Drain — rejects new work (HTTP 503)
// while completing everything already accepted.
//
// # Observability
//
// The manager reports into a process *obs.Observer (jobs.submitted /
// jobs.done / jobs.rejected.* counters, jobs.queue_depth and
// jobs.running gauges, job-submit/-start/-done/-reject/-cancel
// lifecycle events), so the existing /metrics OpenMetrics endpoint
// doubles as the service dashboard. Each job additionally carries its
// own private observer: its per-run progress (runs started/done,
// store hits/misses, live per-run state) is served by GET /jobs/{id}
// without interleaving with other jobs. OBSERVABILITY.md documents
// the full contract; docs/api.md documents the HTTP surface.
package jobs
