package timing

import (
	"fmt"
	"strings"
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
)

func mkEngine() *Engine {
	p := DefaultParams
	return NewEngine(p)
}

func alu(dst, s1, s2 fisa.Reg) fisa.MicroOp {
	return fisa.MicroOp{Op: fisa.UADD, W: 4, SetF: false, Dst: dst, Src1: s1, Src2: s2}
}

func TestBandwidthBound(t *testing.T) {
	e := mkEngine()
	// 30 independent ALU ops: time ≈ 30/width = 10 cycles.
	uops := make([]fisa.MicroOp, 30)
	for i := range uops {
		uops[i] = alu(fisa.Reg(i%8), fisa.Reg((i+1)%8), fisa.Reg((i+2)%8))
	}
	// Independence requires disjoint deps; use immediates instead.
	for i := range uops {
		uops[i] = fisa.MicroOp{Op: fisa.UMOVI, W: 4, Dst: fisa.Reg(8 + i%16), Imm: int32(i)}
	}
	e.ChargeRange(uops, 0, len(uops)-1)
	got := e.Now()
	want := float64(len(uops)) / float64(e.P.Width)
	if got < want*0.99 || got > want*1.2 {
		t.Errorf("independent ops took %.2f cycles, want ≈ %.2f", got, want)
	}
}

func TestDependenceChainBound(t *testing.T) {
	// A serial dependence chain much longer than the reorder window must
	// run at ≈ 1 cycle/op (the clock is gated by in-order retirement of
	// the window). Shorter chains only delay attribution, not rate.
	p := DefaultParams
	p.Window = 16
	e := NewEngine(p)
	const n = 300
	uops := make([]fisa.MicroOp, n)
	for i := range uops {
		uops[i] = alu(fisa.RT0, fisa.RT0, fisa.RT1)
	}
	e.ChargeRange(uops, 0, len(uops)-1)
	got := e.Now()
	if got < n-float64(p.Window)-5 || got > n+5 {
		t.Errorf("serial chain took %.2f cycles, want ≈ %d", got, n)
	}
}

func TestCrossBlockOverlap(t *testing.T) {
	// Two independent blocks charged separately should overlap: total
	// time ≈ bandwidth bound, not the sum of chain depths.
	e := mkEngine()
	mkChain := func(reg fisa.Reg) []fisa.MicroOp {
		uops := make([]fisa.MicroOp, 9)
		for i := range uops {
			uops[i] = alu(reg, reg, fisa.RT5)
		}
		return uops
	}
	a := mkChain(fisa.RT0)
	b := mkChain(fisa.RT1) // independent of a
	e.ChargeRange(a, 0, len(a)-1)
	afterA := e.Now()
	e.ChargeRange(b, 0, len(b)-1)
	afterB := e.Now()
	// Block b is independent: its issue slots stream at bandwidth even
	// though a's chain is 9 deep.
	dB := afterB - afterA
	bw := float64(len(b)) / float64(e.P.Width)
	if dB > bw*1.5 {
		t.Errorf("independent second block took %.2f cycles, want ≈ %.2f (overlap)", dB, bw)
	}
}

func TestFusedPairSingleSlot(t *testing.T) {
	// 20 fused pairs (40 µops) of independent work: bandwidth time =
	// 20/width, roughly half the unfused cost.
	e1 := mkEngine()
	uops := make([]fisa.MicroOp, 40)
	for i := 0; i < 40; i += 2 {
		d := fisa.Reg(8 + (i/2)%16)
		uops[i] = fisa.MicroOp{Op: fisa.UMOVI, W: 4, Dst: d, Imm: 1, Fused: true}
		uops[i+1] = fisa.MicroOp{Op: fisa.UADDI, W: 4, Dst: d, Src1: d, Imm: 2}
	}
	e1.ChargeRange(uops, 0, len(uops)-1)
	fused := e1.Now()

	e2 := mkEngine()
	plain := make([]fisa.MicroOp, len(uops))
	copy(plain, uops)
	for i := range plain {
		plain[i].Fused = false
	}
	e2.ChargeRange(plain, 0, len(plain)-1)
	unfused := e2.Now()

	if fused >= unfused {
		t.Errorf("fusion did not help: fused=%.2f unfused=%.2f", fused, unfused)
	}
	if ratio := unfused / fused; ratio < 1.5 {
		t.Errorf("fusion speedup %.2f, want ≈ 2 on independent pairs", ratio)
	}
}

func TestLoadLatencyAndMLP(t *testing.T) {
	// Dependent loads serialize at full miss latency; independent loads
	// overlap inside the window (emergent MLP).
	mkLoads := func(dep bool) []fisa.MicroOp {
		uops := make([]fisa.MicroOp, 8)
		for i := range uops {
			dst := fisa.Reg(8 + i)
			src := fisa.RV0 // never written here
			if dep && i > 0 {
				src = fisa.Reg(8 + i - 1)
			}
			uops[i] = fisa.MicroOp{Op: fisa.ULD, W: 4, Dst: dst, Src1: src}
		}
		return uops
	}
	const missLat = 100.0

	params := DefaultParams
	params.Window = 4
	eDep := NewEngine(params)
	dep := mkLoads(true)
	for range dep {
		eDep.loadLat = append(eDep.loadLat, missLat)
	}
	eDep.ChargeRange(dep, 0, len(dep)-1)
	eDep.Serialize() // drain so completions are visible in the clock

	eInd := NewEngine(params)
	ind := mkLoads(false)
	for range ind {
		eInd.loadLat = append(eInd.loadLat, missLat)
	}
	eInd.ChargeRange(ind, 0, len(ind)-1)
	eInd.Serialize()

	tDep, tInd := eDep.Now(), eInd.Now()
	if tInd*3 > tDep {
		t.Errorf("MLP not emergent: dependent=%.1f independent=%.1f", tDep, tInd)
	}
}

func TestWindowLimitsRunahead(t *testing.T) {
	// One very long latency load followed by far more independent work
	// than the window holds: the window must throttle run-ahead.
	p := DefaultParams
	p.Window = 16
	e := NewEngine(p)
	uops := make([]fisa.MicroOp, 200)
	uops[0] = fisa.MicroOp{Op: fisa.ULD, W: 4, Dst: fisa.RT0, Src1: fisa.RT1}
	for i := 1; i < len(uops); i++ {
		uops[i] = fisa.MicroOp{Op: fisa.UMOVI, W: 4, Dst: fisa.Reg(8 + i%8), Imm: 1}
	}
	e.loadLat = append(e.loadLat, 300)
	e.ChargeRange(uops, 0, len(uops)-1)
	// The load's 300-cycle completion blocks the window after 16
	// entities, so total time is ≥ ~300.
	if e.Now() < 290 {
		t.Errorf("window did not limit run-ahead: %.1f cycles", e.Now())
	}
}

func TestBranchBubble(t *testing.T) {
	e := mkEngine()
	uops := []fisa.MicroOp{
		{Op: fisa.UCMPI, W: 4, Src1: fisa.RT0, Imm: 1},
		{Op: fisa.UBR, W: 4, Imm: 2},
		{Op: fisa.UEXIT, W: 4},
	}
	e.NoteBranch(float64(e.P.MispredictPenalty))
	e.ChargeRange(uops, 0, 2)
	if e.Now() < float64(e.P.MispredictPenalty) {
		t.Errorf("mispredict bubble missing: %.2f cycles", e.Now())
	}
	e2 := mkEngine()
	e2.NoteBranch(0)
	e2.ChargeRange(uops, 0, 2)
	if e2.Now() > 3 {
		t.Errorf("predicted branch too slow: %.2f", e2.Now())
	}
}

func TestAdvanceAndSerialize(t *testing.T) {
	e := mkEngine()
	e.AdvanceClock(100)
	if e.Now() != 100 {
		t.Errorf("advance: %f", e.Now())
	}
	e.AdvanceClock(-5)
	if e.Now() != 100 {
		t.Errorf("negative advance changed clock: %f", e.Now())
	}
	// An in-flight long op then Serialize waits for it.
	uops := []fisa.MicroOp{{Op: fisa.ULD, W: 4, Dst: fisa.RT0, Src1: fisa.RT1}}
	e.loadLat = append(e.loadLat, 50)
	e.ChargeRange(uops, 0, 0)
	e.Serialize()
	if e.Now() < 150 {
		t.Errorf("serialize did not drain: %.2f", e.Now())
	}
}

func TestAnalyzeShape(t *testing.T) {
	tr := &codecache.Translation{Uops: []fisa.MicroOp{
		{Op: fisa.UMOVI, W: 4, Dst: fisa.RT0, Imm: 1, Fused: true},
		{Op: fisa.UADDI, W: 4, Dst: fisa.RT1, Src1: fisa.RT0, Imm: 2},
		{Op: fisa.UCMPI, W: 4, Src1: fisa.RT1, Imm: 3},
		{Op: fisa.UBR, W: 4, Imm: 5},
		{Op: fisa.UEXIT, W: 4},
		{Op: fisa.UEXIT, W: 4},
	}}
	AnalyzeWith(tr, DefaultParams)
	if tr.Entities != 5 { // pair + cmp + br + 2 exits
		t.Errorf("entities = %d, want 5", tr.Entities)
	}
	if tr.FusedPairs != 1 {
		t.Errorf("pairs = %d", tr.FusedPairs)
	}
	if tr.Depth <= 0 || tr.CPE <= 0 {
		t.Errorf("depth=%d cpe=%f", tr.Depth, tr.CPE)
	}
}

func TestFetchCyclesStreaming(t *testing.T) {
	e := mkEngine()
	// 4 cold lines: first full penalty, rest streamed at 1/4.
	got := e.FetchCycles(0x400000, 256)
	full := 180.0
	want := full + 3*full/4
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("cold 4-line fetch = %.1f, want %.1f", got, want)
	}
	// Warm fetch is free.
	if got := e.FetchCycles(0x400000, 256); got != 0 {
		t.Errorf("warm fetch = %.1f", got)
	}
}

func TestDrainQueues(t *testing.T) {
	e := mkEngine()
	e.loadLat = append(e.loadLat, 3, 15, 183)
	stall := e.DrainQueues()
	if stall != 12+180 {
		t.Errorf("drain stall = %.1f, want 192", stall)
	}
	if len(e.loadLat) != 0 {
		t.Error("queue not drained")
	}
}

// TestNewEngineRefusesUnrepresentableParams: a Width below 1 or a
// latency outside 0..65535 (UopMeta's uint16) panics with the parameter
// named, and the extremes that fit are accepted.
func TestNewEngineRefusesUnrepresentableParams(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(p *Params, v int)
		bad  []int
		good []int
	}{
		{"Width", func(p *Params, v int) { p.Width = v }, []int{0, -1}, []int{1}},
		{"MispredictPenalty", func(p *Params, v int) { p.MispredictPenalty = v }, []int{-1, 65536}, []int{0, 65535}},
		{"LoadLatency", func(p *Params, v int) { p.LoadLatency = v }, []int{-1, 65536}, []int{0, 65535}},
		{"MulLatency", func(p *Params, v int) { p.MulLatency = v }, []int{-1, 65536}, []int{0, 65535}},
		{"DivLatency", func(p *Params, v int) { p.DivLatency = v }, []int{-1, 65536}, []int{0, 65535}},
		{"PairLatency", func(p *Params, v int) { p.PairLatency = v }, []int{-1, 65536}, []int{0, 65535}},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(v int) (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				p := DefaultParams
				c.set(&p, v)
				NewEngine(p)
				return ""
			}
			for _, v := range c.bad {
				if msg := build(v); !strings.Contains(msg, c.name) {
					t.Errorf("%s = %d: panic %q, want one naming %s", c.name, v, msg, c.name)
				}
			}
			for _, v := range c.good {
				if msg := build(v); msg != "" {
					t.Errorf("%s = %d refused: %s", c.name, v, msg)
				}
			}
		})
	}
}
