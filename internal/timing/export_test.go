package timing

import "codesignvm/internal/codecache"

// What the external tests (package timing_test, which may import the VM
// layers that import this package) need of the engine's internals.

// EngineState is the dataflow state a replay mutates; see snapshot.
type EngineState = engineState

// Snapshot captures e's dataflow state, the flag slot included and the
// write-only sink blanked.
func Snapshot(e *Engine) EngineState { return snapshot(e) }

// ZeroReady returns the ready time of the always-zero pseudo-register.
func ZeroReady(e *Engine) float64 { return e.regReady[codecache.RegZero] }
