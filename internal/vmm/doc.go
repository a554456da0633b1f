// Package vmm implements the virtual machine monitor: the concealed
// runtime that orchestrates staged emulation (Fig. 1b of the paper). It
// owns the code caches, the hotspot detector, the dispatch loop with
// translation chaining, precise-state callouts for complex instructions,
// the timing engine, and per-category cycle accounting used by the
// startup experiments (Figs. 2 and 8-11).
//
// The same runtime, parameterized by Strategy, realizes every machine of
// Table 2: the reference superscalar (pure x86-mode execution), VM.soft
// (software BBT + SBT), VM.be (XLTx86-assisted BBT + SBT), VM.fe
// (dual-mode decoders + SBT) and the interpreter-based staged VM of
// Fig. 2.
//
// # Structure
//
// The dispatch loop (run.go) drives the paper's §2 staged-emulation
// state machine: look up the next architected PC in the code caches,
// execute the translation if present, otherwise fall back to the cold
// path (interpreter, software BBT, XLTx86-assisted BBT or x86-mode
// execution, per Strategy), and promote blocks whose profile counter
// crosses the Eq. 2 hot threshold into superblocks. Mode switches,
// shadow-table bookkeeping for the dual-mode frontend (shadow.go,
// §4.1), and the software jump TLB sit on this path.
//
// A run is one goroutine. Each dispatched translation executes and is
// charged in one step: every translated block (BBT, SBT or x86-mode
// shadow) runs through timing.Engine.ExecBlock, which does the
// functional work and the dataflow charge in a single walk; interpreted
// blocks run through fisa.Exec with the timing engine as their memory
// probe and are charged per architected instruction (timing.go holds
// the VM's side of the charge).
//
// # Observability
//
// A VM optionally carries an obs.Recorder (SetObserver). When attached,
// each Run emits its host span (run-start, run-end) and returns a
// metrics registry snapshot in Result.Metrics: the few metrics nothing
// else counts (block sizes, unlinks, restore faults) are kept at their
// sites, and the rest is mirrored from the VM's own statistics at run
// end. When absent the hooks cost one nil check; results are identical
// either way. OBSERVABILITY.md documents every metric and event.
package vmm
