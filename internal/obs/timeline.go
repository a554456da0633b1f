package obs

import (
	"fmt"
	"io"
	"sync"
)

// Time-sliced startup telemetry. A Timeline is a bounded sequence of
// cumulative machine snapshots taken at fixed simulated-cycle
// boundaries, from which per-interval startup curves (interval IPC,
// cycles by activity, instructions by emulation stage, code-cache
// occupancy) are derived at export time. The VM's run loop appends a
// slice whenever its clock crosses the next boundary.
//
// Memory is bounded by construction: the slice array is allocated once
// when the timeline is made and never grows. When a run outlives its
// capacity the timeline coalesces — every pair of slices collapses into
// its second member and the sampling interval doubles — so an
// arbitrarily long run costs the same memory at half the resolution,
// and a short run keeps full resolution. Appends allocate nothing.

// The timeline spec is a constant: 10k-cycle slices, 512 of them. It
// covers a 5.12M-cycle run at full resolution; longer runs coalesce (a
// 500M-cycle run ends at ~2M-cycle slices). A settable spec would have
// to join the run-store key, since a timeline is persisted with its run.
const (
	TimelineInterval = 10_000
	TimelineSlices   = 512
)

// TimeSlice is one cumulative snapshot at a slice boundary. All fields
// except the cache-occupancy gauges are cumulative since the run began;
// per-interval deltas are derived at export (TimelineRows).
type TimeSlice struct {
	// EndCycles is the boundary's position on the simulated-cycle axis.
	EndCycles float64
	// Instrs is the cumulative retired x86 instruction count, and the
	// per-stage fields split it by what executed them.
	Instrs       uint64
	InterpInstrs uint64 // interpreted
	BBTInstrs    uint64 // basic-block translations
	SBTInstrs    uint64 // optimized superblocks
	X86Instrs    uint64 // x86-mode (hardware decoders)
	// Cycle attribution: VMM runtime (dispatch, chaining, mode
	// switches), translation (BBT + SBT episodes), and emulation
	// (executing translated / interpreted / x86-mode code).
	VMMCycles   float64
	XlateCycles float64
	EmuCycles   float64
	// Code-cache occupancy at the boundary (bytes; point-in-time).
	BBTUsed uint32
	SBTUsed uint32
}

// Timeline is the allocation-bounded slice store. Appends come from
// the simulating goroutine; reads (the /runs endpoint) may come
// from others, so access is mutex-guarded — appends are rare
// (once per interval boundary), never per instruction.
type Timeline struct {
	mu       sync.Mutex
	interval float64
	next     float64
	slices   []TimeSlice // len <= max, backing array allocated once
	max      int
}

// newTimeline returns an empty timeline with the given initial
// interval and capacity (TimelineInterval and TimelineSlices outside
// tests).
func newTimeline(interval float64, max int) *Timeline {
	return &Timeline{
		interval: interval,
		next:     interval,
		slices:   make([]TimeSlice, 0, max),
		max:      max,
	}
}

// TimelineOf returns a finished timeline holding slices: a run's
// timeline read back from the run store. Nothing appends to it.
func TimelineOf(slices []TimeSlice) *Timeline {
	return &Timeline{slices: slices, max: len(slices)}
}

// Append records the snapshot for the boundary at s.EndCycles and
// returns the next boundary the sampler should fire at. When the
// timeline is full it first coalesces: pairs collapse into their
// second member and the interval doubles.
func (t *Timeline) Append(s TimeSlice) (nextBoundary float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.push(s)
	t.next = s.EndCycles + t.interval
	return t.next
}

// AppendFinal records the run-end partial slice (EndCycles is the
// run's final cycle count, not a boundary). It does not advance the
// boundary clock, so a later Run call on the same VM resumes the
// regular grid; a duplicate boundary (the run ended exactly on one, or
// without progress) is dropped.
func (t *Timeline) AppendFinal(s TimeSlice) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.slices); n > 0 && t.slices[n-1].EndCycles >= s.EndCycles {
		return
	}
	t.push(s)
}

// push appends s, first coalescing a full timeline: pairs collapse
// into their second member and the interval doubles. Called with mu
// held.
func (t *Timeline) push(s TimeSlice) {
	if len(t.slices) == t.max {
		n := 0
		for i := 1; i < len(t.slices); i += 2 {
			t.slices[n] = t.slices[i]
			n++
		}
		t.slices = t.slices[:n]
		t.interval *= 2
	}
	t.slices = append(t.slices, s)
}

// NextBoundary returns the cycle count the next Append is due at.
func (t *Timeline) NextBoundary() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Len returns the number of recorded slices.
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slices)
}

// Slices returns a copy of the recorded slices.
func (t *Timeline) Slices() []TimeSlice {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TimeSlice(nil), t.slices...)
}

// LastIntervalIPC returns the x86 IPC of the most recent completed
// interval (instructions retired in it over its cycle width), or false
// before two slices exist. Safe to call while the run is in flight —
// the /runs endpoint polls it live.
func (t *Timeline) LastIntervalIPC() (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.slices)
	if n < 2 {
		return 0, false
	}
	a, b := t.slices[n-2], t.slices[n-1]
	if b.EndCycles <= a.EndCycles {
		return 0, false
	}
	return float64(b.Instrs-a.Instrs) / (b.EndCycles - a.EndCycles), true
}

// TimelineRow is one exported interval: the derived per-interval view
// of a slice (deltas against its predecessor plus the point-in-time
// gauges), one CSV line of the -timeline export.
type TimelineRow struct {
	EndCycles    float64
	Cycles       float64 // interval width
	Instrs       uint64  // retired in the interval
	IPC          float64 // interval IPC
	AggIPC       float64
	InterpInstrs uint64
	BBTInstrs    uint64
	SBTInstrs    uint64
	X86Instrs    uint64
	VMMCycles    float64
	XlateCycles  float64
	EmuCycles    float64
	BBTUsed      uint32
	SBTUsed      uint32
}

// TimelineRows derives the per-interval export rows from a run's
// cumulative slices (Result.Timeline).
func TimelineRows(slices []TimeSlice) []TimelineRow {
	rows := make([]TimelineRow, len(slices))
	var prev TimeSlice
	for i, s := range slices {
		w := s.EndCycles - prev.EndCycles
		r := TimelineRow{
			EndCycles:    s.EndCycles,
			Cycles:       w,
			Instrs:       s.Instrs - prev.Instrs,
			InterpInstrs: s.InterpInstrs - prev.InterpInstrs,
			BBTInstrs:    s.BBTInstrs - prev.BBTInstrs,
			SBTInstrs:    s.SBTInstrs - prev.SBTInstrs,
			X86Instrs:    s.X86Instrs - prev.X86Instrs,
			VMMCycles:    s.VMMCycles - prev.VMMCycles,
			XlateCycles:  s.XlateCycles - prev.XlateCycles,
			EmuCycles:    s.EmuCycles - prev.EmuCycles,
			BBTUsed:      s.BBTUsed,
			SBTUsed:      s.SBTUsed,
		}
		if w > 0 {
			r.IPC = float64(r.Instrs) / w
		}
		if s.EndCycles > 0 {
			r.AggIPC = float64(s.Instrs) / s.EndCycles
		}
		rows[i] = r
		prev = s
	}
	return rows
}

// timelineCSVHeader names the export columns; OBSERVABILITY.md
// documents each.
const timelineCSVHeader = "tag,slice,end_cycles,cycles,instrs,ipc,agg_ipc," +
	"interp_instrs,bbt_instrs,sbt_instrs,x86_instrs," +
	"vmm_cycles,xlate_cycles,emu_cycles,bbt_cache_bytes,sbt_cache_bytes"

// writeTimelineCSV renders one run's rows, one line per interval,
// prefixed with the run tag.
func writeTimelineCSV(w io.Writer, tag string, slices []TimeSlice) error {
	for i, r := range TimelineRows(slices) {
		_, err := fmt.Fprintf(w, "%s,%d,%g,%g,%d,%.6g,%.6g,%d,%d,%d,%d,%.6g,%.6g,%.6g,%d,%d\n",
			tag, i, r.EndCycles, r.Cycles, r.Instrs, r.IPC, r.AggIPC,
			r.InterpInstrs, r.BBTInstrs, r.SBTInstrs, r.X86Instrs,
			r.VMMCycles, r.XlateCycles, r.EmuCycles, r.BBTUsed, r.SBTUsed)
		if err != nil {
			return err
		}
	}
	return nil
}
