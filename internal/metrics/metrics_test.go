package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"codesignvm/internal/vmm"
)

func linearSamples(ipc float64, n int, step float64) []vmm.Sample {
	out := make([]vmm.Sample, n)
	for i := range out {
		c := float64(i+1) * step
		out[i] = vmm.Sample{Cycles: c, Instrs: uint64(ipc * c)}
	}
	return out
}

// cursorAt evaluates a series at one cycle count through a fresh Cursor.
func cursorAt(s []vmm.Sample, c float64) float64 {
	cur := NewCursor(s)
	return cur.InstrsAt(c)
}

func TestInstrsAtInterpolation(t *testing.T) {
	s := []vmm.Sample{
		{Cycles: 100, Instrs: 50},
		{Cycles: 200, Instrs: 150},
		{Cycles: 400, Instrs: 350},
	}
	cases := []struct {
		c    float64
		want float64
	}{
		{50, 25},   // before first: scale from origin
		{100, 50},  // exact
		{150, 100}, // midpoint of segment
		{400, 350},
		{800, 700}, // flat-rate extrapolation
	}
	for _, tc := range cases {
		if got := cursorAt(s, tc.c); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("InstrsAt(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
	if cursorAt(nil, 100) != 0 || cursorAt(s, 0) != 0 {
		t.Error("edge cases should return 0")
	}
}

// Property: interpolation is monotone in cycles.
func TestInstrsAtMonotoneProperty(t *testing.T) {
	s := linearSamples(1.5, 20, 100)
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 3000))
		b = math.Abs(math.Mod(b, 3000))
		if a > b {
			a, b = b, a
		}
		return cursorAt(s, a) <= cursorAt(s, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonicMean(t *testing.T) {
	if hm := HarmonicMean([]float64{1, 1, 1}); math.Abs(hm-1) > 1e-12 {
		t.Errorf("HM(1,1,1) = %v", hm)
	}
	if hm := HarmonicMean([]float64{2, 2}); math.Abs(hm-2) > 1e-12 {
		t.Errorf("HM(2,2) = %v", hm)
	}
	// HM(1,3) = 2*3/(3+1) = 1.5
	if hm := HarmonicMean([]float64{1, 3}); math.Abs(hm-1.5) > 1e-12 {
		t.Errorf("HM(1,3) = %v", hm)
	}
	if hm := HarmonicMean([]float64{0, -1}); hm != 0 {
		t.Errorf("HM of non-positives = %v", hm)
	}
	// HM ≤ arithmetic mean.
	vals := []float64{0.5, 1.7, 2.9, 4.2}
	am := (0.5 + 1.7 + 2.9 + 4.2) / 4
	if hm := HarmonicMean(vals); hm > am {
		t.Errorf("HM %v exceeds AM %v", hm, am)
	}
}

func TestBreakeven(t *testing.T) {
	// Ref runs at IPC 1 from the start; VM at 0 for 1000 cycles then IPC 2.
	ref := linearSamples(1.0, 100, 100)
	vm := make([]vmm.Sample, 0, 100)
	for i := 1; i <= 100; i++ {
		c := float64(i) * 100
		instr := 0.0
		if c > 1000 {
			instr = 2 * (c - 1000)
		}
		vm = append(vm, vmm.Sample{Cycles: c, Instrs: uint64(instr)})
	}
	// Breakeven when 2(c-1000) = c → c = 2000.
	be, ok := Breakeven(ref, vm)
	if !ok {
		t.Fatal("breakeven not found")
	}
	if be < 1900 || be > 2100 {
		t.Errorf("breakeven = %.0f, want ≈ 2000", be)
	}
}

func TestBreakevenNever(t *testing.T) {
	ref := linearSamples(1.0, 50, 100)
	vm := linearSamples(0.5, 50, 100)
	if _, ok := Breakeven(ref, vm); ok {
		t.Error("slower VM must never break even")
	}
}

func TestBreakevenImmediate(t *testing.T) {
	ref := linearSamples(1.0, 50, 100)
	vm := linearSamples(1.2, 50, 100)
	be, ok := Breakeven(ref, vm)
	if !ok || be > 2 {
		t.Errorf("faster-from-start VM: be=%v ok=%v", be, ok)
	}
}

// searchInstrsAt and searchBreakeven are InstrsAt and Breakeven as
// they were before Breakeven walked its grid with cursors: two fresh
// sort.Search calls at every grid point. They are the reference the
// cursor version must match bit for bit.
func searchInstrsAt(samples []vmm.Sample, cycles float64) float64 {
	if len(samples) == 0 || cycles <= 0 {
		return 0
	}
	if cycles <= samples[0].Cycles {
		if samples[0].Cycles == 0 {
			return float64(samples[0].Instrs)
		}
		return float64(samples[0].Instrs) * cycles / samples[0].Cycles
	}
	idx := sort.Search(len(samples), func(i int) bool { return samples[i].Cycles >= cycles })
	if idx >= len(samples) {
		last := samples[len(samples)-1]
		if last.Cycles == 0 {
			return float64(last.Instrs)
		}
		return float64(last.Instrs) * cycles / last.Cycles
	}
	a, b := samples[idx-1], samples[idx]
	if b.Cycles == a.Cycles {
		return float64(b.Instrs)
	}
	f := (cycles - a.Cycles) / (b.Cycles - a.Cycles)
	return float64(a.Instrs) + f*float64(b.Instrs-a.Instrs)
}

func searchBreakeven(ref, vm []vmm.Sample) (cycles float64, ok bool) {
	if len(ref) == 0 || len(vm) == 0 {
		return 0, false
	}
	limit := math.Min(ref[len(ref)-1].Cycles, vm[len(vm)-1].Cycles)
	lo := 1.0
	behind := func(c float64) bool { return searchInstrsAt(vm, c) < searchInstrsAt(ref, c) }
	prev := lo
	found := -1.0
	for c := lo; c <= limit; c *= 1.05 {
		if !behind(c) {
			found = c
			break
		}
		prev = c
	}
	if found < 0 {
		return 0, false
	}
	if found == lo {
		return lo, true
	}
	for i := 0; i < 40; i++ {
		mid := (prev + found) / 2
		if behind(mid) {
			prev = mid
		} else {
			found = mid
		}
	}
	return found, true
}

// randomSeries draws a cycle-ordered sample series of n samples from
// start: about one step in five repeats the previous cycle count (an
// equal-cycle run) and one in five retires nothing; ipc scales the
// retirement rate.
func randomSeries(rng *rand.Rand, n int, start, ipc float64) []vmm.Sample {
	out := make([]vmm.Sample, n)
	c, instrs := start, uint64(0)
	for i := range out {
		if i > 0 && rng.Intn(5) != 0 {
			c += rng.ExpFloat64() * start
		}
		if rng.Intn(5) != 0 {
			instrs += uint64(rng.ExpFloat64() * ipc * start)
		}
		out[i] = vmm.Sample{Cycles: c, Instrs: instrs}
	}
	return out
}

// TestBreakevenMatchesSearch: the cursor walk returns exactly what the
// sort.Search version returns — the same ok and the same float bits —
// on random cycle-ordered series, and on the shapes that exercise each
// branch of the walk: a crossing before the first sample, a crossing
// the series would only reach after their last sample, and none at all.
func TestBreakevenMatchesSearch(t *testing.T) {
	check := func(name string, ref, vm []vmm.Sample) {
		t.Helper()
		be, ok := Breakeven(ref, vm)
		want, wantOK := searchBreakeven(ref, vm)
		if ok != wantOK || math.Float64bits(be) != math.Float64bits(want) {
			t.Fatalf("%s: Breakeven = %v, %v; sort.Search version = %v, %v\nref %v\nvm  %v",
				name, be, ok, want, wantOK, ref, vm)
		}
		for _, s := range [][]vmm.Sample{ref, vm} {
			for _, c := range []float64{0.5, 1, s[0].Cycles, s[len(s)-1].Cycles, 2 * s[len(s)-1].Cycles} {
				if got, want := cursorAt(s, c), searchInstrsAt(s, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: a fresh cursor at %v = %v, sort.Search version %v", name, c, got, want)
				}
			}
			// The cursor on its own, over the walk's grid and past the
			// last sample.
			cur := NewCursor(s)
			for c := 1.0; c <= 2*s[len(s)-1].Cycles; c *= 1.05 {
				if got, want := cur.InstrsAt(c), searchInstrsAt(s, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: cursor at %v = %v, sort.Search version %v\nseries %v", name, c, got, want, s)
				}
			}
		}
	}
	// Before the first sample: the VM's first sample already leads, and
	// both series start past the grid's first point.
	ref := []vmm.Sample{{Cycles: 5000, Instrs: 1000}, {Cycles: 9000, Instrs: 9000}}
	vm := []vmm.Sample{{Cycles: 5000, Instrs: 2000}, {Cycles: 9000, Instrs: 2100}}
	if _, ok := Breakeven(ref, vm); !ok {
		t.Fatal("crossing before the first sample not found")
	}
	check("before first", ref, vm)
	// After the last: the VM would catch up only past the overlap.
	ref = linearSamples(1.0, 20, 100)
	vm = []vmm.Sample{{Cycles: 100, Instrs: 0}, {Cycles: 1000, Instrs: 500}, {Cycles: 2000, Instrs: 1990}}
	if _, ok := Breakeven(ref, vm); ok {
		t.Fatal("crossing after the last sample reported")
	}
	check("after last", ref, vm)
	check("never", linearSamples(1.0, 50, 100), linearSamples(0.5, 50, 100))
	check("immediate", linearSamples(1.0, 50, 100), linearSamples(1.2, 50, 100))
	check("equal cycles", []vmm.Sample{{Cycles: 10, Instrs: 5}, {Cycles: 10, Instrs: 9}, {Cycles: 500, Instrs: 400}},
		[]vmm.Sample{{Cycles: 10, Instrs: 0}, {Cycles: 300, Instrs: 0}, {Cycles: 300, Instrs: 900}, {Cycles: 500, Instrs: 1000}})

	// Random series; in every other case the samples sit on the walk's
	// own grid points, where an equal-cycle run makes the choice of
	// segment visible.
	var grid []float64
	for c := 1.0; c < 1e6; c *= 1.05 {
		grid = append(grid, c)
	}
	rng := rand.New(rand.NewSource(1))
	found := 0
	const cases = 20000
	for i := 0; i < cases; i++ {
		start := math.Exp(rng.Float64() * 9) // 1 .. 8 000 cycles
		ref := randomSeries(rng, 1+rng.Intn(40), start, 1)
		vm := randomSeries(rng, 1+rng.Intn(40), start*(0.5+rng.Float64()), 0.5+rng.Float64())
		if i%2 == 1 {
			onGrid(rng, ref, grid)
			onGrid(rng, vm, grid)
		}
		if _, ok := Breakeven(ref, vm); ok {
			found++
		}
		check("random", ref, vm)
	}
	if found < cases/10 || found > cases*9/10 {
		t.Fatalf("random series crossed in %d of %d cases: both outcomes must be covered", found, cases)
	}
}

// fuzzSeries decodes FuzzBreakeven's bytes into a cycle-ordered
// series, three bytes a sample: a root r, so that the cycle count grows
// by r²·unit/8 (0 repeats the previous count, and a first 0 is a sample
// at cycle 0), and a signed 16-bit instruction step, scaled by unit/8
// (a step back wraps the count, as uint64 arithmetic does).
func fuzzSeries(b []byte, unit float64) []vmm.Sample {
	var out []vmm.Sample
	c, n := 0.0, uint64(0)
	for ; len(b) >= 3; b = b[3:] {
		c += float64(b[0]) * float64(b[0]) * unit / 8
		n += uint64(int64(int16(uint16(b[1])|uint16(b[2])<<8)) * int64(unit) / 8)
		out = append(out, vmm.Sample{Cycles: c, Instrs: n})
	}
	return out
}

// fuzzSteps encodes (root, instruction step) pairs for fuzzSeries.
func fuzzSteps(steps ...int) []byte {
	var b []byte
	for i := 0; i+1 < len(steps); i += 2 {
		d := uint16(int16(steps[i+1]))
		b = append(b, byte(steps[i]), byte(d), byte(d>>8))
	}
	return b
}

// FuzzBreakeven: Breakeven returns the bits and the ok of the search
// that evaluates every grid point, on any pair of cycle-ordered series.
// shift sets the unit, 2^(shift%24), so one step spans 0 to ≈ 7·10^10
// cycles. With shift 3 a root r is r² cycles and a step s instructions.
func FuzzBreakeven(f *testing.F) {
	steady := fuzzSteps(40, 1600, 40, 4800, 40, 8000, 40, 11200, 40, 14400)
	for _, seed := range []struct {
		ref, vm []byte
		shift   uint8
	}{
		{steady, steady, 3}, // identical curves: caught up at lo
		{steady, fuzzSteps(40, 3200, 40, 6400, 40, 9600), 3},                          // a crossing at lo
		{steady, fuzzSteps(40, 800, 40, 1600, 40, 2400, 40, 3200, 40, 4000), 3},       // never crossing
		{steady, fuzzSteps(40, 4000, 40, 100, 40, 100, 40, 100, 40, 100), 3},          // vm ahead, then behind
		{steady, fuzzSteps(40, 100, 40, 200, 40, 16000, 40, 8000, 40, 8000), 3},       // behind, then a crossing
		{steady, fuzzSteps(40, 0, 0, 3000, 40, 100, 0, 9000, 40, 9000), 3},            // duplicate-cycle steps
		{fuzzSteps(0, 50, 40, 1600, 40, 3200), fuzzSteps(0, 0, 40, 900, 40, 5000), 3}, // zero-cycle first samples
		{fuzzSteps(60, 3600), fuzzSteps(50, 1000), 3},                                 // one-sample series
		{fuzzSteps(60, 3600), steady, 3},                                              // a one-sample ref
		{steady, fuzzSteps(40, 800, 40, -900, 40, 30000), 3},                          // a step back wraps
		{steady, fuzzSteps(40, 800, 40, 1600, 40, 30000), 20},                         // 2·10^8 cycles a step
		{steady, fuzzSteps(41, 800, 43, 1600, 45, 30000), 0},                          // fractional cycles
	} {
		f.Add(seed.ref, seed.vm, seed.shift)
	}
	f.Fuzz(func(t *testing.T, refBytes, vmBytes []byte, shift uint8) {
		unit := math.Ldexp(1, int(shift%24))
		ref, vm := fuzzSeries(refBytes, unit), fuzzSeries(vmBytes, unit)
		be, ok := Breakeven(ref, vm)
		want, wantOK := searchBreakeven(ref, vm)
		if ok != wantOK || math.Float64bits(be) != math.Float64bits(want) {
			t.Fatalf("Breakeven = %v, %v; search = %v, %v\nref %v\nvm  %v", be, ok, want, wantOK, ref, vm)
		}
	})
}

// onGrid moves a series' samples onto ascending grid points, keeping
// its equal-cycle runs.
func onGrid(rng *rand.Rand, s []vmm.Sample, grid []float64) {
	k := rng.Intn(len(grid) / 2)
	for i := range s {
		if i > 0 && s[i].Cycles != s[i-1].Cycles {
			k += 1 + rng.Intn(8)
		}
		s[i].Cycles = grid[min(k, len(grid)-1)]
	}
}

func TestSteadyIPC(t *testing.T) {
	// Slow first 1000 cycles, then IPC 2.
	s := []vmm.Sample{
		{Cycles: 1000, Instrs: 100},
		{Cycles: 1500, Instrs: 1100},
		{Cycles: 2000, Instrs: 2100},
	}
	ipc := SteadyIPC(s, 0.5)
	if math.Abs(ipc-2) > 0.1 {
		t.Errorf("steady IPC = %v, want ≈ 2", ipc)
	}
	if SteadyIPC(nil, 0.5) != 0 {
		t.Error("empty samples")
	}
}

func TestLogGrid(t *testing.T) {
	g := LogGrid(10, 10000, 1)
	if len(g) != 4 {
		t.Fatalf("grid = %v", g)
	}
	for i, want := range []float64{10, 100, 1000, 10000} {
		if math.Abs(g[i]-want)/want > 1e-9 {
			t.Errorf("grid[%d] = %v, want %v", i, g[i], want)
		}
	}
	if LogGrid(0, 100, 1) != nil || LogGrid(100, 10, 1) != nil {
		t.Error("invalid grids should be nil")
	}
}

func TestHistogram(t *testing.T) {
	counts := map[uint32]uint64{
		1: 1, 2: 5, 3: 9, // bucket 0 (1+)
		4: 10, 5: 99, // bucket 1
		6: 100,      // bucket 2
		7: 12345,    // bucket 4 (10K+)
		8: 20000000, // bucket 7 (10M+, clamped)
	}
	h := BuildHistogram(func(fn func(uint64)) {
		for _, c := range counts {
			fn(c)
		}
	})
	if h.Total != 8 {
		t.Errorf("total = %d", h.Total)
	}
	want := []uint64{3, 2, 1, 0, 1, 0, 0, 1}
	for i, w := range want {
		if h.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], w)
		}
	}
	sum := 0.0
	for _, f := range h.DynFrac {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("dynamic fractions sum to %v", sum)
	}
	if len(BucketLabels()) != len(h.Buckets) {
		t.Error("label/bucket mismatch")
	}
}
