// Package metrics post-processes simulation results into the quantities
// the paper plots: normalized aggregate IPC over (log) time, harmonic
// means across benchmarks, breakeven points between machine
// configurations, steady-state IPC estimates, and execution-frequency
// histograms (Fig. 3).
package metrics

import (
	"math"
	"sort"

	"codesignvm/internal/vmm"
)

// instrsAt linearly interpolates cumulative instructions at cycles > 0
// from a non-empty sample series, given idx, the first sample at or
// past cycles (len(samples) when none is). Before the first sample it
// interpolates from the origin; past the last it extrapolates flat at
// the final aggregate IPC.
func instrsAt(samples []vmm.Sample, idx int, cycles float64) float64 {
	if idx == 0 {
		if samples[0].Cycles == 0 {
			return float64(samples[0].Instrs)
		}
		return float64(samples[0].Instrs) * cycles / samples[0].Cycles
	}
	if idx >= len(samples) {
		last := &samples[len(samples)-1]
		if last.Cycles == 0 {
			return float64(last.Instrs)
		}
		// Extrapolate with the final aggregate rate.
		return float64(last.Instrs) * cycles / last.Cycles
	}
	a, b := &samples[idx-1], &samples[idx]
	if b.Cycles == a.Cycles {
		return float64(b.Instrs)
	}
	f := (cycles - a.Cycles) / (b.Cycles - a.Cycles)
	return float64(a.Instrs) + f*float64(b.Instrs-a.Instrs)
}

// Cursor interpolates cumulative instructions over one series at
// non-decreasing cycle counts. Its index only moves forward, and at
// each count it stops at the first sample at or past it — the index
// sort.Search finds over cycle-ordered samples — in time linear in the
// series and the counts together.
type Cursor struct {
	samples []vmm.Sample
	idx     int
}

// NewCursor returns a Cursor at the start of a cycle-ordered series.
func NewCursor(samples []vmm.Sample) Cursor { return Cursor{samples: samples} }

// InstrsAt returns the cumulative instructions at cycles, which must
// not be below any count the cursor was asked before: 0 at or before
// cycle 0 or over an empty series.
func (c *Cursor) InstrsAt(cycles float64) float64 {
	if len(c.samples) == 0 || cycles <= 0 {
		return 0
	}
	for c.idx < len(c.samples) && c.samples[c.idx].Cycles < cycles {
		c.idx++
	}
	return instrsAt(c.samples, c.idx, cycles)
}

// LogGrid returns an exponentially spaced cycle grid from lo to hi with
// the given number of points per decade.
func LogGrid(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		return nil
	}
	var out []float64
	step := math.Pow(10, 1/float64(perDecade))
	for c := lo; c <= hi*1.0001; c *= step {
		out = append(out, c)
	}
	return out
}

// HarmonicMean returns the harmonic mean of positive values (zeros and
// negatives are ignored; returns 0 when nothing remains).
func HarmonicMean(vals []float64) float64 {
	n := 0
	sum := 0.0
	for _, v := range vals {
		if v > 0 {
			sum += 1 / v
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// rounding is the relative margin by which vm must trail ref before
// Breakeven steps over a stretch's grid points: 2^-40 ≈ 9e-13, against
// the 6u ≈ 7e-16 (u = 2^-53) by which instrsAt can miss its affine
// function.
const rounding = 0x1p-40

// line is one segment's interpolant as Breakeven's bound evaluates it,
// base + (x − start)·slope, with the weight instrsAt's rounding error
// scales with, weight + x·wslope.
type line struct {
	start, base, slope float64
	weight, wslope     float64
}

// lineOf is the line of segment idx, from sample idx-1 to sample idx:
// its weight is A + D, the base and rise instrsAt converts. Segment 0
// runs from the origin to the first sample, where the interpolant is one
// product and one quotient and its weight is its value.
func lineOf(samples []vmm.Sample, idx int) line {
	if idx == 0 {
		k := float64(samples[0].Instrs) / samples[0].Cycles
		return line{slope: k, wslope: k}
	}
	a, b := &samples[idx-1], &samples[idx]
	base, rise := float64(a.Instrs), float64(b.Instrs-a.Instrs)
	return line{start: a.Cycles, base: base, slope: rise / (b.Cycles - a.Cycles), weight: base + rise}
}

// trails reports whether ref − vm exceeds the rounding margin at x.
func trails(ref, vm line, x float64) bool {
	return ref.base+(x-ref.start)*ref.slope-(vm.base+(x-vm.start)*vm.slope) >
		rounding*(ref.weight+vm.weight+x*(ref.wslope+vm.wslope))
}

// reach returns the least and the greatest value instrsAt's interpolant
// takes on segment idx, which never falls: its rise converts to a
// non-negative float. The greatest, A + D, or the first sample's count
// on segment 0, bounds the segment's weight too.
func reach(samples []vmm.Sample, idx int) (low, high float64) {
	if idx == 0 {
		return 0, float64(samples[0].Instrs)
	}
	a, b := &samples[idx-1], &samples[idx]
	base := float64(a.Instrs)
	return base, base + float64(b.Instrs-a.Instrs)
}

// trailsOver reports whether vm evaluates behind ref at every grid
// point of the stretch on segments ri and vi that ends at hi.
func trailsOver(ref []vmm.Sample, ri int, vm []vmm.Sample, vi int, hi float64) bool {
	rlow, rhigh := reach(ref, ri)
	_, vhigh := reach(vm, vi)
	if rlow-vhigh > rounding*(rhigh+vhigh) {
		return true // vm's segment ends below where ref's begins
	}
	rl, vl := lineOf(ref, ri), lineOf(vm, vi)
	return trails(rl, vl, hi) && (ri == 0 && vi == 0 || trails(rl, vl, max(rl.start, vl.start)))
}

// Breakeven returns the first cycle count at which the vm series has
// retired at least as many instructions as the ref series, searching on
// an exponential grid with bisection refinement. ok is false when the vm
// never catches up within the overlapping simulated range. Samples must
// be cycle-ordered with finite counts.
//
// The grid starts at 1 cycle and grows by repeated ×1.05. The walk stops
// at its first point where InstrsAt(vm) < InstrsAt(ref) is false, and 40
// bisection steps refine between that point and the one before. The
// result is bit for bit that of evaluating every grid point: the walk
// skips only points whose outcome a bound proves.
//
// Exactness. Between consecutive samples of either series (a stretch)
// each interpolant is a fixed affine function g of the count, which
// never falls. instrsAt computes g within 6u·w, u = 2^-53, where w is
// the line's weight: A + D inside a segment (f ∈ [0, 1] takes three
// roundings, f·D one more, the sum with A one more), g itself before
// the first sample (a product and a quotient). The walk steps over a
// stretch's grid points without evaluating them when either test
// clears the rounding margin, 2^-40 of the weights, which covers the
// tests' own roundings too:
//
//   - vm's segment ends below where ref's begins. Neither interpolant
//     falls, so vm trails at every point of the stretch, by more than
//     the 12u·(w_ref + w_vm) the evaluations can round by.
//   - ref − vm, on the lines, is above the margin at both ends of the
//     stretch. The weights are affine on the stretch too, so h = ref −
//     vm − 12u·(w_ref + w_vm) is affine there; positive at both ends, it
//     is positive at every grid point between, where vm therefore
//     evaluates behind. Each end is taken on the stretch's own
//     segments: at a duplicate-cycle sample the curve jumps, so the
//     neighbouring stretch's value there bounds nothing. Before both
//     first samples the curves and the weights are all proportional to
//     the count, so the upper end alone decides, by comparing slopes.
//
// Stretches neither test clears, and stretches of one grid point, are
// evaluated point by point.
//
// The bisection's midpoints lie below the point found and within one
// grid step of it, so their samples are found by stepping back from its.
func Breakeven(ref, vm []vmm.Sample) (cycles float64, ok bool) {
	if len(ref) == 0 || len(vm) == 0 {
		return 0, false
	}
	limit := math.Min(ref[len(ref)-1].Cycles, vm[len(vm)-1].Cycles)
	const lo = 1.0
	// The curves may touch at the very beginning (both empty); require a
	// minimum time so the answer is meaningful.
	prev := lo
	found := -1.0
	ri, vi := 0, 0 // the first sample of each series at or past c
walk:
	for c := lo; c <= limit; {
		for ref[ri].Cycles < c {
			ri++
		}
		for vm[vi].Cycles < c {
			vi++
		}
		// The stretch's grid points run from c to hi.
		hi := limit
		if ref[ri].Cycles < hi {
			hi = ref[ri].Cycles
		}
		if vm[vi].Cycles < hi {
			hi = vm[vi].Cycles
		}
		if c*1.05 <= hi && trailsOver(ref, ri, vm, vi, hi) {
			for c <= hi {
				prev, c = c, c*1.05
			}
			continue
		}
		for ; c <= hi; prev, c = c, c*1.05 {
			if !(instrsAt(vm, vi, c) < instrsAt(ref, ri, c)) {
				found = c
				break walk
			}
		}
	}
	if found < 0 {
		return 0, false
	}
	if found == lo {
		return lo, true
	}
	// Bisect between prev (behind) and found (ahead). ri and vi stay the
	// samples of found: a midpoint's are at or before them.
	for i := 0; i < 40; i++ {
		mid := (prev + found) / 2
		rj, vj := ri, vi
		for rj > 0 && ref[rj-1].Cycles >= mid {
			rj--
		}
		for vj > 0 && vm[vj-1].Cycles >= mid {
			vj--
		}
		if instrsAt(vm, vj, mid) < instrsAt(ref, rj, mid) {
			prev = mid
		} else {
			found, ri, vi = mid, rj, vj
		}
	}
	return found, true
}

// SteadyIPC estimates steady-state IPC from the tail of a run: the
// marginal IPC over the last (1-frac) of retired instructions.
func SteadyIPC(samples []vmm.Sample, frac float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	last := samples[len(samples)-1]
	cut := float64(last.Instrs) * frac
	// Find the earliest sample at/after the cut.
	idx := sort.Search(len(samples), func(i int) bool { return float64(samples[i].Instrs) >= cut })
	if idx >= len(samples)-1 {
		idx = len(samples) - 2
	}
	a := samples[idx]
	dI := float64(last.Instrs - a.Instrs)
	dC := last.Cycles - a.Cycles
	if dC <= 0 {
		return 0
	}
	return dI / dC
}

// Histogram builds the Fig. 3 frequency histogram: bucket i counts
// static instructions whose execution count is in [10^i, 10^(i+1)), and
// dynFrac[i] is the fraction of dynamic instructions they contribute.
type Histogram struct {
	Buckets  []uint64  // static instruction counts per decade bucket
	DynFrac  []float64 // dynamic-instruction share per bucket
	Total    uint64    // total static instructions observed
	DynTotal uint64    // total dynamic instructions
}

// BuildHistogram aggregates per-instruction execution counts into decade
// buckets (1+, 10+, 100+, ... 10M+). each calls its argument once per
// profiled instruction with that instruction's count, in any order
// ((*profile.Counters).Each is one).
func BuildHistogram(each func(fn func(count uint64))) Histogram {
	const nb = 8
	h := Histogram{Buckets: make([]uint64, nb), DynFrac: make([]float64, nb)}
	dyn := make([]uint64, nb)
	each(func(c uint64) {
		if c == 0 {
			return
		}
		b := 0
		for v := c; v >= 10 && b < nb-1; v /= 10 {
			b++
		}
		h.Buckets[b]++
		dyn[b] += c
		h.Total++
		h.DynTotal += c
	})
	for i := range dyn {
		if h.DynTotal > 0 {
			h.DynFrac[i] = float64(dyn[i]) / float64(h.DynTotal)
		}
	}
	return h
}

// BucketLabels names the histogram buckets.
func BucketLabels() []string {
	return []string{"1+", "10+", "100+", "1K+", "10K+", "100K+", "1M+", "10M+"}
}
