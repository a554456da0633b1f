package timing

import (
	"testing"

	"codesignvm/internal/bbt"
	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
	"codesignvm/internal/workload"
)

// engineState snapshots the dataflow state that a replay mutates: the
// ready times (the flag slot among them; the write-only sink, which
// only the metadata-driven replays mark, blanked), clock, retirement
// frontier and unconsumed events.
type engineState struct {
	clock      float64
	regReady   [256]float64
	lastRetire float64
	ringIdx    int
	loadsLeft  int
	brLeft     int
}

func snapshot(e *Engine) engineState {
	ready := e.regReady
	ready[codecache.RegSink] = 0
	return engineState{
		clock:      e.clock,
		regReady:   ready,
		lastRetire: e.lastRetire,
		ringIdx:    e.ringIdx,
		loadsLeft:  len(e.loadLat) - e.loadHead,
		brLeft:     len(e.brPen) - e.brHead,
	}
}

func countEvents(uops []fisa.MicroOp, lo, hi int) (loads, brs int) {
	for i := lo; i <= hi && i < len(uops); i++ {
		if uops[i].IsLoad() {
			loads++
		}
		if uops[i].Op == fisa.UBR {
			brs++
		}
	}
	return
}

// chargeBoth replays [lo,hi] of t on a ChargeRange engine and a
// ChargeBlock engine with identically seeded event queues and compares
// the resulting dataflow state exactly.
func chargeBoth(t *testing.T, tr *codecache.Translation, lo, hi int, seed float64) {
	t.Helper()
	loads, brs := countEvents(tr.Uops, lo, hi)
	mk := func() *Engine {
		e := NewEngine(DefaultParams)
		for i := 0; i < loads; i++ {
			e.loadLat = append(e.loadLat, seed+float64(7*i%97))
		}
		for i := 0; i < brs; i++ {
			e.brPen = append(e.brPen, float64((i%3)*DefaultParams.MispredictPenalty))
		}
		return e
	}
	eRef, eFast := mk(), mk()
	eRef.ChargeRange(tr.Uops, lo, hi)
	eFast.ChargeBlock(tr, lo, hi)
	sr, sf := snapshot(eRef), snapshot(eFast)
	if sr != sf {
		t.Fatalf("replay state diverged for range [%d,%d] of %d uops:\nref  = %+v\nfast = %+v",
			lo, hi, len(tr.Uops), sr, sf)
	}
}

func analyzed(uops []fisa.MicroOp) *codecache.Translation {
	tr := &codecache.Translation{Uops: uops}
	AnalyzeWith(tr, DefaultParams)
	return tr
}

func TestChargeBlockMatchesChargeRangeHandBuilt(t *testing.T) {
	// Exercises fused pairs (ALU+ALU, cmp+branch, ALU+load tail),
	// multiply/divide latencies, flag chains and partial ranges.
	uops := []fisa.MicroOp{
		{Op: fisa.UMOVI, W: 4, Dst: fisa.RT0, Imm: 5, Fused: true},
		{Op: fisa.UADDI, W: 4, Dst: fisa.RT1, Src1: fisa.RT0, Imm: 2},
		{Op: fisa.UADD, W: 4, Dst: fisa.RT2, Src1: fisa.RT1, Src2: fisa.RT0, Fused: true},
		{Op: fisa.ULD, W: 4, Dst: fisa.RT3, Src1: fisa.RT2, Imm: 8},
		{Op: fisa.UMUL, W: 4, Dst: fisa.RT4, Src1: fisa.RT3, Src2: fisa.RT1},
		{Op: fisa.UDIVQ, W: 4, Dst: fisa.RT5, Src1: fisa.RT4},
		{Op: fisa.UCMPI, W: 4, Src1: fisa.RT5, Imm: 3, Fused: true},
		{Op: fisa.UBR, W: 4, Imm: 9, Cond: 0},
		{Op: fisa.UADC, W: 4, SetF: true, Dst: fisa.RT0, Src1: fisa.RT0, Src2: fisa.RT1},
		{Op: fisa.ULD8Z, W: 1, Dst: fisa.RT1, Src1: fisa.RT0},
		{Op: fisa.UST, W: 4, Src1: fisa.RT0, Src2: fisa.RT1},
		{Op: fisa.UEXIT, W: 4},
	}
	tr := analyzed(uops)
	n := len(uops)
	for lo := 0; lo < n; lo++ {
		for hi := lo; hi < n; hi++ {
			chargeBoth(t, tr, lo, hi, 3)
		}
	}
	// Long latencies (cache-miss loads) stress window interactions.
	chargeBoth(t, tr, 0, n-1, 180)
}

func TestChargeBlockMatchesChargeRangeRealBlocks(t *testing.T) {
	prog, err := workload.App("Word", 400)
	if err != nil {
		t.Fatal(err)
	}
	mem := prog.Memory()

	// BFS the static control-flow graph from the entry, translating up
	// to 60 basic blocks and replaying each over several ranges.
	seen := map[uint32]bool{}
	queue := []uint32{prog.Entry}
	blocks := 0
	for len(queue) > 0 && blocks < 60 {
		pc := queue[0]
		queue = queue[1:]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		tr, err := new(bbt.Scratch).Translate(mem, pc, bbt.DefaultConfig)
		if err != nil {
			continue
		}
		AnalyzeWith(tr, DefaultParams)
		blocks++
		n := len(tr.Uops)
		chargeBoth(t, tr, 0, n-1, 3)
		chargeBoth(t, tr, 0, (n-1)/2, 3)
		chargeBoth(t, tr, n/3, n-1, 100)
		for _, e := range tr.Exits {
			if e.Kind == codecache.ExitFall || e.Kind == codecache.ExitTaken {
				queue = append(queue, e.Target)
			}
		}
	}
	if blocks < 10 {
		t.Fatalf("translated only %d blocks", blocks)
	}
}
