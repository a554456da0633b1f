package timing_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"codesignvm/internal/bbt"
	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
	"codesignvm/internal/machine"
	"codesignvm/internal/timing"
	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// splitBranchProbe is the branch probe of the split reference path:
// train the predictor at functional order, queue the bubble for the
// replay.
type splitBranchProbe struct{ e *timing.Engine }

func (p splitBranchProbe) OnBranch(pc uint32, taken bool) {
	pen := 0.0
	if p.e.Pred.Cond(pc, taken) {
		pen = float64(p.e.P.MispredictPenalty)
	}
	p.e.NoteBranch(pen)
}

// lockstep is the two arms of the comparison: the fused pass
// (Engine.ExecBlock) and the split reference path (fisa.Exec with the
// engine probes, then ChargeBlock over the executed linear ranges:
// [start..taken branch] and the trampoline it reached), each with its
// own engine, memory and native state. The engines live across legs and translations, so
// their cache, predictor and ready-time state is whatever the sequence
// so far left, identically on both sides.
type lockstep struct {
	engF, engS *timing.Engine
	memF, memS *x86.Memory
	stF, stS   fisa.NativeState

	legs, pairs, taken, callouts int // what the legs covered
}

func newLockstep(memF, memS *x86.Memory) *lockstep {
	return &lockstep{
		engF: timing.NewEngine(timing.DefaultParams), engS: timing.NewEngine(timing.DefaultParams),
		memF: memF, memS: memS,
	}
}

// run executes tr from µop 0 through every leg (a callout ends a leg;
// the complex instruction itself is skipped on both sides) and compares
// everything the two paths produce after each: stop kind and index,
// execution statistics, the full native register/flag state, the memory
// words the leg stored to, and the engines' dataflow snapshots
// (including empty event queues — the split charge must consume
// precisely what the probes queued).
func (l *lockstep) run(t *testing.T, tr *codecache.Translation, init *fisa.NativeState) {
	t.Helper()
	l.stF, l.stS = *init, *init
	for start := 0; ; {
		var outF, outS fisa.ExecStats
		kindF, idxF, errF := l.engF.ExecBlock(&l.stF, l.memF, tr, start, &outF)

		env := fisa.Env{St: &l.stS, Mem: l.memS, Probe: l.engS, Branch: splitBranchProbe{l.engS}}
		kindS, idxS, errS := fisa.Exec(&env, tr.Uops, start, &outS)
		if errS == nil {
			if outS.TakenBranchIdx >= 0 {
				l.engS.ChargeBlock(tr, start, outS.TakenBranchIdx)
				l.engS.ChargeBlock(tr, idxS, idxS)
			} else {
				l.engS.ChargeBlock(tr, start, idxS)
			}
		}

		where := fmt.Sprintf("block %#x leg at %d", tr.EntryPC, start)
		if (errF != nil) != (errS != nil) {
			t.Fatalf("%s: error divergence: fused=%v split=%v", where, errF, errS)
		}
		if errF != nil {
			// Both faulted; a faulted leg aborts the run in both modes and
			// only the fused pass has charged anything. Start both arms
			// afresh.
			l.engF, l.engS = timing.NewEngine(timing.DefaultParams), timing.NewEngine(timing.DefaultParams)
			return
		}
		if kindF != kindS || idxF != idxS {
			t.Fatalf("%s: stop divergence: fused=(%v,%d) split=(%v,%d)", where, kindF, idxF, kindS, idxS)
		}
		if outF != outS {
			t.Fatalf("%s: stats divergence:\nfused = %+v\nsplit = %+v", where, outF, outS)
		}
		if l.stF != l.stS {
			t.Fatalf("%s: native state divergence:\nfused = %+v\nsplit = %+v", where, l.stF, l.stS)
		}
		if sf, ss := timing.Snapshot(l.engF), timing.Snapshot(l.engS); sf != ss {
			t.Fatalf("%s: engine state divergence:\nfused = %+v\nsplit = %+v", where, sf, ss)
		}
		// Stores must have landed identically.
		for i := start; i <= idxF; i++ {
			u := &tr.Uops[i]
			if !u.IsStore() {
				continue
			}
			addr := l.stF.R[u.Src1] + uint32(u.Imm)
			if a, b := l.memF.Read32(addr), l.memS.Read32(addr); a != b {
				t.Fatalf("%s: memory divergence at %#x: fused=%#x split=%#x", where, addr, a, b)
			}
		}

		l.legs++
		l.pairs += outF.Uops - outF.Entities
		if outF.TakenBranchIdx >= 0 {
			l.taken++
		}
		if kindF != fisa.StopCallout {
			return
		}
		l.callouts++
		start = idxF + 1
	}
}

// initStates are the register states every translation is run under:
// all-zero (cold branches, null-page loads), and two patterned states
// that point load/store bases at mapped program pages so the legs
// exercise real hierarchy latencies, with different incoming flags so
// both directions of the conditional exits are taken.
func initStates(prog *workload.Program) []fisa.NativeState {
	inits := make([]fisa.NativeState, 4)
	for r := 0; r < int(fisa.NumRegs); r++ {
		inits[1].R[r] = prog.Entry + uint32(r*64)
		inits[2].R[r] = prog.Entry + uint32(r*4096+13)
		inits[3].R[r] = uint32(r)
	}
	inits[2].Flags = x86.FlagCF | x86.FlagZF
	inits[3].Flags = x86.FlagSF | x86.FlagOF | x86.FlagPF
	return inits
}

// hotTranslations runs prog on VM.soft long enough for its hot regions
// to be optimized and returns the superblocks and basic blocks left in
// the code caches, in address order, re-analyzed under p.
func hotTranslations(tb testing.TB, prog *workload.Program, p timing.Params) (supers, blocks []*codecache.Translation, eng *timing.Engine) {
	tb.Helper()
	vm := machine.NewVM(machine.VMSoft, prog)
	if _, err := vm.Run(1_000_000); err != nil {
		tb.Fatal(err)
	}
	bbtC, sbtC := vm.Caches()
	harvest := func(c *codecache.Cache) (out []*codecache.Translation) {
		c.ForEach(func(t *codecache.Translation) {
			timing.AnalyzeWith(t, p)
			out = append(out, t)
		})
		sort.Slice(out, func(i, j int) bool { return out[i].EntryPC < out[j].EntryPC })
		return out
	}
	return harvest(sbtC), harvest(bbtC), vm.Engine()
}

var lockstepApps = []string{"Word", "Winzip", "Project"}

// TestExecBlockLockstep pins the fused execute+timing pass to the
// split reference path (see ExecBlock's equivalence argument) over
// real translations of three applications: the basic blocks a BFS of
// the static CFG reaches, and the SBT superblocks (fused pairs,
// side-exit trampolines, callout legs) and BBT blocks a VM.soft run
// leaves in its code caches.
func TestExecBlockLockstep(t *testing.T) {
	for _, app := range lockstepApps {
		prog, err := workload.App(app, 100)
		if err != nil {
			t.Fatal(err)
		}
		inits := initStates(prog)
		l := newLockstep(prog.Memory(), prog.Memory())

		mem := prog.Memory()
		seen := map[uint32]bool{}
		queue := []uint32{prog.Entry}
		reached := 0
		for len(queue) > 0 && reached < 60 {
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
			timing.AnalyzeWith(tr, timing.DefaultParams)
			for _, e := range tr.Exits {
				if e.Kind == codecache.ExitFall || e.Kind == codecache.ExitTaken {
					queue = append(queue, e.Target)
				}
			}
			reached++
			for i := range inits {
				l.run(t, tr, &inits[i])
			}
		}
		if reached < 10 {
			t.Fatalf("%s: only %d blocks reached", app, reached)
		}

		supers, blocks, _ := hotTranslations(t, prog, timing.DefaultParams)
		fused := 0
		for _, tr := range append(supers, blocks...) {
			fused += tr.FusedPairs
			for i := range inits {
				l.run(t, tr, &inits[i])
			}
		}
		if len(supers) == 0 || fused == 0 || l.pairs == 0 || l.taken == 0 || l.callouts == 0 {
			t.Fatalf("%s: %d superblocks with %d fused pairs; legs executed %d pairs, %d taken exits, %d callouts: the superblock shapes were not covered",
				app, len(supers), fused, l.pairs, l.taken, l.callouts)
		}
		t.Logf("%s: %d BFS blocks, %d superblocks, %d cache blocks; %d legs, %d executed pairs, %d taken exits, %d callout legs",
			app, reached, len(supers), len(blocks), l.legs, l.pairs, l.taken, l.callouts)
	}
}

// replayJumps is the reference for a translation with internal UJMPs,
// which the split path's two ranges per leg cannot describe: fisa.Exec
// runs over a copy in which every UJMP stops execution, and each linear
// run of micro-ops that executed — up to a jump or a taken branch, and
// from the branch's target to the stop — is charged through ChargeRange
// on the original micro-ops, a revisited micro-op once per visit. It
// returns what one ExecBlock leg from start returns.
func replayJumps(t *testing.T, eng *timing.Engine, st *fisa.NativeState, mem *x86.Memory, uops []fisa.MicroOp, start int) (fisa.StopKind, int, fisa.ExecStats) {
	t.Helper()
	cut := append([]fisa.MicroOp(nil), uops...)
	for i := range cut {
		if cut[i].Op == fisa.UJMP {
			cut[i].Op = fisa.UEXIT
		}
	}
	env := fisa.Env{St: st, Mem: mem, Probe: eng, Branch: splitBranchProbe{eng}}
	total := fisa.ExecStats{TakenBranchIdx: -1}
	for {
		var out fisa.ExecStats
		kind, idx, err := fisa.Exec(&env, cut, start, &out)
		if err != nil {
			t.Fatal(err)
		}
		if tb := out.TakenBranchIdx; tb >= 0 {
			eng.ChargeRange(uops, start, tb)
			eng.ChargeRange(uops, int(uops[tb].Imm), idx)
			total.TakenBranchIdx = tb
		} else {
			eng.ChargeRange(uops, start, idx)
		}
		total.Uops += out.Uops
		total.Entities += out.Entities
		total.Loads += out.Loads
		total.Stores += out.Stores
		total.Boundaries += out.Boundaries
		if uops[idx].Op != fisa.UJMP {
			return kind, idx, total
		}
		start = int(uops[idx].Imm)
	}
}

// TestExecBlockInternalJumps holds ExecBlock's UJMP to the reference on
// two hand-built translations, a forward jump over micro-ops and a
// backward loop bounded by a counter register, whose body loads,
// stores and ends in a fused decrement-and-branch pair: the stop, the
// statistics, the native state and the stored memory must equal plain
// fisa.Exec's, and the engine state must equal replayJumps'.
func TestExecBlockInternalJumps(t *testing.T) {
	const dataBase = 0x40000000
	const cnt, acc, ptr = fisa.RECX, fisa.REAX, fisa.RESI
	forward := []fisa.MicroOp{
		{Op: fisa.UMOVI, W: 4, Dst: acc, Imm: 5},
		{Op: fisa.UJMP, W: 4, Imm: 4, Boundary: 1},
		{Op: fisa.UMOVI, W: 4, Dst: acc, Imm: 99},
		{Op: fisa.UST, W: 4, Src1: ptr, Src2: acc, Boundary: 1},
		{Op: fisa.UADDI, W: 4, SetF: true, Dst: acc, Src1: acc, Imm: 1},
		{Op: fisa.UST, W: 4, Src1: ptr, Src2: acc, Imm: 4, Boundary: 1},
		{Op: fisa.UEXIT, W: 4, Imm: 0},
	}
	loop := []fisa.MicroOp{
		{Op: fisa.ULD, W: 4, Dst: acc, Src1: ptr},
		{Op: fisa.UADDI, W: 4, SetF: true, Dst: acc, Src1: acc, Imm: 3, Boundary: 1},
		{Op: fisa.UST, W: 4, Src1: ptr, Src2: acc, Boundary: 1},
		{Op: fisa.UADDI, W: 4, Dst: ptr, Src1: ptr, Imm: 4, Boundary: 1},
		{Op: fisa.USUBI, W: 4, SetF: true, Fused: true, Dst: cnt, Src1: cnt, Imm: 1, Boundary: 1},
		{Op: fisa.UBR, W: 4, Cond: x86.CondE, Imm: 7, X86PC: 0x1010, Boundary: 1},
		{Op: fisa.UJMP, W: 4, Imm: 0},
		{Op: fisa.UEXIT, W: 4, Imm: 0},
	}
	newMem := func() *x86.Memory {
		m := x86.NewMemory()
		for a := uint32(0); a < 0x400; a += 4 {
			m.Write32(dataBase+a, a*2654435761)
		}
		return m
	}
	engF, engR := timing.NewEngine(timing.DefaultParams), timing.NewEngine(timing.DefaultParams)
	memF, memR, memE := newMem(), newMem(), newMem()
	type jumpCase struct {
		name  string
		uops  []fisa.MicroOp
		count uint32 // loop iterations; 0 for the forward jump
	}
	cases := []jumpCase{{"forward", forward, 0}}
	for _, n := range []uint32{1, 2, 3, 17, 64, 5} {
		cases = append(cases, jumpCase{fmt.Sprintf("loop%d", n), loop, n})
	}
	for _, c := range cases {
		tr := &codecache.Translation{EntryPC: 0x1000, Uops: c.uops}
		timing.AnalyzeWith(tr, timing.DefaultParams)
		var init fisa.NativeState
		init.R[cnt], init.R[ptr] = c.count, dataBase+0x40

		stF, stR, stE := init, init, init
		var outF fisa.ExecStats
		kindF, idxF, err := engF.ExecBlock(&stF, memF, tr, 0, &outF)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		kindR, idxR, outR := replayJumps(t, engR, &stR, memR, tr.Uops, 0)
		var outE fisa.ExecStats
		kindE, idxE, err := fisa.Exec(&fisa.Env{St: &stE, Mem: memE}, tr.Uops, 0, &outE)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		if kindF != kindE || idxF != idxE || kindR != kindE || idxR != idxE {
			t.Fatalf("%s: stop: ExecBlock (%v,%d), replay (%v,%d), fisa.Exec (%v,%d)", c.name, kindF, idxF, kindR, idxR, kindE, idxE)
		}
		if outF != outE || outR != outE {
			t.Fatalf("%s: stats:\nExecBlock = %+v\nreplay    = %+v\nfisa.Exec = %+v", c.name, outF, outR, outE)
		}
		if stF != stE || stR != stE {
			t.Fatalf("%s: native state:\nExecBlock = %+v\nreplay    = %+v\nfisa.Exec = %+v", c.name, stF, stR, stE)
		}
		for a := uint32(0); a < 0x400; a += 4 {
			if f, e := memF.Read32(dataBase+a), memE.Read32(dataBase+a); f != e {
				t.Fatalf("%s: memory at %#x: ExecBlock %#x, fisa.Exec %#x", c.name, dataBase+a, f, e)
			}
		}
		if sf, sr := timing.Snapshot(engF), timing.Snapshot(engR); sf != sr || engF.BranchStalls() != engR.BranchStalls() {
			t.Fatalf("%s: engine state:\nExecBlock = %+v (%v stalled)\nreplay    = %+v (%v stalled)", c.name, sf, engF.BranchStalls(), sr, engR.BranchStalls())
		}
		if want := 6 * int(c.count); c.count > 0 && outF.Entities != want {
			t.Fatalf("%s: %d entities issued, want %d (the loop body once per iteration)", c.name, outF.Entities, want)
		}
	}
}

// matrixOperands is the operand set of the opcode matrix — the one the
// flag-rule tests of internal/x86 use (flagOperands there): every
// boundary of every width, then seeded random words.
func matrixOperands() []uint32 {
	ops := []uint32{0, 1, 2, 0xF, 0x10, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF, 0x10000,
		0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF, 0xFFFFFF00, 0xFFFF0000, 0x12345678}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 60; i++ {
		ops = append(ops, rng.Uint32())
	}
	return ops
}

// TestExecBlockOpcodeMatrix runs every opcode ExecBlock executes, at
// every width, with and without SetF, over edge and seeded-random
// operands and incoming flags, through both arms of the lockstep. The
// 32-bit forms ExecBlock resolves itself are thereby held to the
// generic helpers fisa.Exec still goes through, flags and merges
// included.
func TestExecBlockOpcodeMatrix(t *testing.T) {
	const dataBase = 0x40000000
	memF, memS := x86.NewMemory(), x86.NewMemory()
	for a := uint32(0); a < 0x2000; a += 4 {
		memF.Write32(dataBase+a, a*2654435761)
		memS.Write32(dataBase+a, a*2654435761)
	}
	l := newLockstep(memF, memS)
	operands := matrixOperands()
	flags := []x86.Flags{0, x86.FlagCF, x86.FlagsAll, x86.FlagZF | x86.FlagPF, x86.FlagSF | x86.FlagOF}
	rng := rand.New(rand.NewSource(16))

	const dst, s1, s2 = fisa.RT0, fisa.RT1, fisa.RT2
	tr := &codecache.Translation{EntryPC: 0x1000}
	n := 0
	for op := fisa.UNOP; op <= fisa.UCALLOUT; op++ {
		if op == fisa.UJMP {
			// A jump to a random index escapes the translation; the
			// internal jumps are TestExecBlockInternalJumps'.
			continue
		}
		probe := fisa.MicroOp{Op: op}
		memOp := probe.IsLoad() || probe.IsStore()
		for _, w := range []uint8{1, 2, 4} {
			for _, setf := range []bool{false, true} {
				// Every edge against every edge would be 6 k runs per
				// form; pair each operand with four others instead,
				// drawn so the whole set is covered on both sides.
				for ai, a := range operands {
					for k := 0; k < 4; k++ {
						b := operands[(ai*7+k*13+rng.Intn(len(operands)))%len(operands)]
						u := fisa.MicroOp{Op: op, W: w, SetF: setf, Dst: dst, Src1: s1, Src2: s2,
							Imm: int32(b), Cond: x86.Cond(rng.Intn(16)), X86PC: 0x1000 + uint32(n%64)*4, Boundary: 1}
						init := fisa.NativeState{Flags: flags[rng.Intn(len(flags))]}
						for r := range init.R {
							init.R[r] = rng.Uint32()
						}
						init.R[s1], init.R[s2] = a, b
						if memOp {
							// Address = Src1 + Imm inside the mapped window,
							// unaligned and page-crossing offsets included.
							init.R[s1] = dataBase + a&0x1FFF
							u.Imm = int32(b & 0x3F)
						}
						switch op {
						case fisa.UBR:
							u.Imm = 2 // taken: the second trampoline
						case fisa.UDIVQ, fisa.UDIVR, fisa.UIDIVQ, fisa.UIDIVR:
							init.R[fisa.REAX], init.R[fisa.REDX] = b, operands[(ai+k)%len(operands)]>>uint(k*8)
						}
						tr.Uops = append(tr.Uops[:0], u,
							fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: 0}, fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: 1})
						timing.AnalyzeWith(tr, timing.DefaultParams)
						l.run(t, tr, &init)
						n++
					}
				}
			}
		}
	}
	if l.taken == 0 || l.callouts == 0 {
		t.Fatalf("matrix took %d branches and %d callouts", l.taken, l.callouts)
	}
	t.Logf("%d runs, %d legs", n, l.legs)
}

// TestPseudoRegistersStayOutOfTranslations: the issue step's padding
// is sound only while no micro-op names a pseudo-register and nothing
// marks the always-zero slot ready. Checked over every translation a
// run of each application leaves behind, and on the engine that ran it.
func TestPseudoRegistersStayOutOfTranslations(t *testing.T) {
	for _, app := range lockstepApps {
		prog, err := workload.App(app, 100)
		if err != nil {
			t.Fatal(err)
		}
		supers, blocks, eng := hotTranslations(t, prog, timing.DefaultParams)
		for _, tr := range append(supers, blocks...) {
			for i, u := range tr.Uops {
				if u.Dst >= fisa.NumRegs || u.Src1 >= fisa.NumRegs || u.Src2 >= fisa.NumRegs {
					t.Fatalf("%s: µop %d of %#x (%v) names a register past the register file", app, i, tr.EntryPC, u)
				}
			}
			for i, m := range tr.Meta {
				for _, d := range m.Dsts {
					if d == codecache.RegZero {
						t.Fatalf("%s: entity %d of %#x marks the zero slot", app, i, tr.EntryPC)
					}
				}
				for _, s := range append(m.Srcs[:], m.FlagSrc) {
					if s == codecache.RegSink {
						t.Fatalf("%s: entity %d of %#x waits for the sink", app, i, tr.EntryPC)
					}
				}
			}
		}
		if z := timing.ZeroReady(eng); z != 0 {
			t.Fatalf("%s: the zero slot reads %v after a full run", app, z)
		}
	}
}
