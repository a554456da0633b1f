// Package model implements the paper's analytical models of staged
// translation (§3):
//
//   - Eq. 1: total translation overhead of a two-stage BBT+SBT system,
//     Overhead = MBBT·ΔBBT + MSBT·ΔSBT;
//   - Eq. 2: the Jikes-style breakeven hot threshold,
//     N = ΔSBT / (p − 1);
//   - the four startup scenarios of §3.1 (disk startup, memory startup,
//     code-cache transient, steady state) as a first-order timeline
//     calculator.
package model

import "fmt"

// HotThreshold returns Eq. 2's breakeven execution count N for a region:
// deltaSBT is the per-instruction optimization overhead (in units of the
// pre-optimization per-instruction execution time) and speedup is p, the
// ratio of pre- to post-optimization execution time.
func HotThreshold(deltaSBT, speedup float64) float64 {
	if speedup <= 1 {
		return 0 // optimization never pays off
	}
	return deltaSBT / (speedup - 1)
}

// Overhead is Eq. 1 with the paper's measurement conventions.
type Overhead struct {
	MBBT     float64 // static instructions touched (translated by BBT)
	MSBT     float64 // static instructions identified as hotspot
	DeltaBBT float64 // native instructions per x86 instruction for BBT
	DeltaSBT float64 // native instructions per x86 instruction for SBT
}

// PaperOverhead returns the §3.2 values: MBBT = 150K, MSBT = 3K,
// ΔBBT = 105, ΔSBT = 1674 → 15.75M + 5.02M native instructions.
func PaperOverhead() Overhead {
	return Overhead{MBBT: 150e3, MSBT: 3e3, DeltaBBT: 105, DeltaSBT: 1674}
}

// BBTComponent returns MBBT·ΔBBT.
func (o Overhead) BBTComponent() float64 { return o.MBBT * o.DeltaBBT }

// SBTComponent returns MSBT·ΔSBT.
func (o Overhead) SBTComponent() float64 { return o.MSBT * o.DeltaSBT }

// Total returns Eq. 1's total translation overhead.
func (o Overhead) Total() float64 { return o.BBTComponent() + o.SBTComponent() }

// BBTDominates reports the paper's central observation: basic-block
// translation, not hotspot optimization, is the major overhead.
func (o Overhead) BBTDominates() bool { return o.BBTComponent() > o.SBTComponent() }

func (o Overhead) String() string {
	return fmt.Sprintf("BBT %.3gM + SBT %.3gM = %.3gM native instructions",
		o.BBTComponent()/1e6, o.SBTComponent()/1e6, o.Total()/1e6)
}

// Scenario is one of the §3.1 startup scenarios.
type Scenario uint8

// Startup scenarios.
const (
	DiskStartup   Scenario = iota // binary loaded from disk, then memory startup
	MemoryStartup                 // binary in memory, caches cold, no translations
	CodeCacheWarm                 // translations resident, caches cold
	SteadyState                   // everything warm
)

func (s Scenario) String() string {
	switch s {
	case DiskStartup:
		return "disk startup"
	case MemoryStartup:
		return "memory startup"
	case CodeCacheWarm:
		return "code-cache transient"
	case SteadyState:
		return "steady state"
	}
	return "scenario?"
}

// ScenarioParams feeds the startup-timeline estimator.
type ScenarioParams struct {
	Overhead        Overhead
	CyclesPerNative float64 // VMM translation IPC⁻¹ (cycles per native instruction)
	DiskLatency     float64 // cycles to load the binary (milliseconds × clock)
	ColdMissCycles  float64 // aggregate cold-cache stall for the working set
	SteadyIPC       float64 // steady-state architected IPC
	WorkInstrs      float64 // architected instructions to execute
}

// EstimateCycles returns the first-order cycle count to complete
// WorkInstrs under each scenario. It quantifies §3.1's qualitative
// ordering: translation overhead is fully exposed in the memory-startup
// scenario, diluted by disk latency in scenario 1, and absent in
// scenarios 3 and 4.
func EstimateCycles(s Scenario, p ScenarioParams) float64 {
	exec := p.WorkInstrs / p.SteadyIPC
	xlate := p.Overhead.Total() * p.CyclesPerNative
	switch s {
	case DiskStartup:
		return p.DiskLatency + xlate + p.ColdMissCycles + exec
	case MemoryStartup:
		return xlate + p.ColdMissCycles + exec
	case CodeCacheWarm:
		return p.ColdMissCycles + exec
	case SteadyState:
		return exec
	}
	return exec
}
