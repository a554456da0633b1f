package vmm

import (
	"fmt"
	"math/rand"
	"testing"

	"codesignvm/internal/interp"
	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// End-to-end differential testing: structured random programs (loops,
// calls, branches, complex instructions) are executed to completion by
// the golden interpreter and by every VM strategy; final architected
// state, memory and retired-instruction counts must agree exactly.

const (
	tCodeBase = 0x400000
	tDataBase = 0x200000
	tDataSize = 0x2000
	tStackTop = 0x7FF000
)

// progGen emits structured random programs that always terminate.
type progGen struct {
	rng    *rand.Rand
	a      *x86.Asm
	nextID int
	funcs  []string
}

func (g *progGen) label(prefix string) string {
	g.nextID++
	return fmt.Sprintf("%s_%d", prefix, g.nextID)
}

// safeInstr emits one random register/memory instruction that preserves
// EBX-as-data-pointer and ESP/EBP integrity.
func (g *progGen) safeInstr() {
	r := g.rng
	a := g.a
	regs := []x86.Reg{x86.EAX, x86.EDX, x86.EDI}
	rr := func() x86.Reg { return regs[r.Intn(len(regs))] }
	mem := func() x86.Operand {
		return x86.M(x86.EBX, int32(r.Intn(tDataSize-64)))
	}
	alu := []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.ADC, x86.SBB}
	switch r.Intn(14) {
	case 0:
		a.ALU(alu[r.Intn(len(alu))], 4, x86.R(rr()), x86.R(rr()))
	case 1:
		a.ALUI(alu[r.Intn(len(alu))], 4, x86.R(rr()), int32(int16(r.Uint32())))
	case 2:
		a.ALU(alu[r.Intn(len(alu))], 4, mem(), x86.R(rr()))
	case 3:
		a.ALU(alu[r.Intn(len(alu))], 4, x86.R(rr()), mem())
	case 4:
		a.Mov(4, mem(), x86.R(rr()))
	case 5:
		a.Mov(4, x86.R(rr()), mem())
	case 6:
		a.MovRI(rr(), r.Uint32())
	case 7:
		a.ShiftI([]x86.Op{x86.SHL, x86.SHR, x86.SAR}[r.Intn(3)], 4, x86.R(rr()), uint8(r.Intn(31)))
	case 8:
		a.Imul(rr(), x86.R(rr()))
	case 9:
		a.Movzx(rr(), mem(), []uint8{1, 2}[r.Intn(2)])
	case 10:
		a.Setcc(x86.Cond(r.Intn(16)), x86.R(x86.EAX))
	case 11:
		a.Inc(rr())
	case 12:
		w := []uint8{1, 2}[r.Intn(2)]
		a.ALU(alu[r.Intn(4)], w, x86.R(rr()), x86.R(rr()))
	default:
		a.Lea(rr(), x86.MSIB(x86.EBX, x86.EDI, 4, int32(r.Intn(64))))
	}
}

// seq emits a structured sequence of segments at the given nesting depth.
func (g *progGen) seq(depth int, callees []string) {
	r := g.rng
	a := g.a
	n := 2 + r.Intn(3)
	for s := 0; s < n; s++ {
		switch choice := r.Intn(10); {
		case choice < 4: // straight line
			k := 2 + r.Intn(5)
			for i := 0; i < k; i++ {
				g.safeInstr()
			}
		case choice < 6 && depth > 0: // counted loop
			top := g.label("loop")
			a.Push(x86.ECX)
			a.MovRI(x86.ECX, uint32(2+r.Intn(5)))
			a.Label(top)
			g.seq(depth-1, callees)
			a.Dec(x86.ECX)
			a.Jcc(x86.CondNE, top)
			a.Pop(x86.ECX)
		case choice < 8: // conditional skip
			skip := g.label("skip")
			a.ALUI(x86.CMP, 4, x86.R(x86.EAX), int32(r.Intn(1000)))
			a.Jcc(x86.Cond(r.Intn(16)), skip)
			k := 1 + r.Intn(4)
			for i := 0; i < k; i++ {
				g.safeInstr()
			}
			a.Label(skip)
		case choice < 9 && len(callees) > 0: // call
			a.Call(callees[r.Intn(len(callees))])
		default: // complex-class instruction
			switch r.Intn(3) {
			case 0: // div with nonzero divisor
				a.MovRI(x86.EAX, r.Uint32())
				a.MovRI(x86.EDX, 0)
				a.MovRI(x86.EDI, uint32(1+r.Intn(1000)))
				a.Div(x86.R(x86.EDI))
			case 1: // rep movs within the window
				a.Push(x86.ESI)
				a.Push(x86.ECX)
				a.MovRI(x86.ESI, tDataBase)
				a.MovRI(x86.EDI, tDataBase+tDataSize/2)
				a.MovRI(x86.ECX, uint32(1+r.Intn(16)))
				a.RepMovsd()
				a.Pop(x86.ECX)
				a.Pop(x86.ESI)
			default: // one-operand wide multiply
				a.MovRI(x86.EAX, r.Uint32())
				a.MovRI(x86.EDI, uint32(1+r.Intn(100000)))
				a.Mul1(x86.R(x86.EDI))
			}
		}
	}
}

func (g *progGen) emitFunc(name string, depth int, callees []string) {
	a := g.a
	a.Label(name)
	a.Push(x86.EBP)
	a.MovRR(4, x86.EBP, x86.ESP)
	g.seq(depth, callees)
	a.MovRR(4, x86.ESP, x86.EBP)
	a.Pop(x86.EBP)
	a.Ret()
}

// buildProgram generates a random terminating program. Returns the code.
func buildProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	g := &progGen{rng: rng, a: x86.NewAsm(tCodeBase)}
	a := g.a

	// main: set up pointers, run a hot loop calling functions, halt.
	nFuncs := 2 + rng.Intn(3)
	names := make([]string, nFuncs)
	for i := range names {
		names[i] = fmt.Sprintf("fn_%d", i)
	}

	a.Jmp("main")
	// Leaf functions first (callees of earlier functions are later ones
	// to guarantee termination).
	for i := nFuncs - 1; i >= 0; i-- {
		var callees []string
		if i < nFuncs-1 {
			callees = names[i+1:]
		}
		g.emitFunc(names[i], 1+rng.Intn(2), callees)
	}

	a.Label("main")
	a.MovRI(x86.EBX, tDataBase)
	a.MovRI(x86.EAX, rng.Uint32())
	a.MovRI(x86.EDX, rng.Uint32())
	a.MovRI(x86.EDI, 0)
	// Hot outer loop: run enough iterations to cross small thresholds.
	a.Push(x86.ECX)
	a.MovRI(x86.ECX, uint32(30+rng.Intn(40)))
	a.Label("hot")
	a.Call(names[0])
	a.Dec(x86.ECX)
	a.Jcc(x86.CondNE, "hot")
	a.Pop(x86.ECX)
	a.Hlt()

	code, err := a.Finalize()
	if err != nil {
		panic(err)
	}
	return code
}

func freshMemory(code []byte, seed int64) *x86.Memory {
	mem := x86.NewMemory()
	mem.WriteBytes(tCodeBase, code)
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	for i := uint32(0); i < tDataSize; i += 4 {
		mem.Write32(tDataBase+i, rng.Uint32())
	}
	return mem
}

func initState() *x86.State {
	st := &x86.State{EIP: tCodeBase}
	st.R[x86.ESP] = tStackTop
	return st
}

// goldenRun executes the program to completion on the interpreter.
func goldenRun(t *testing.T, code []byte, seed int64, limit uint64) (*x86.State, *x86.Memory, uint64) {
	t.Helper()
	mem := freshMemory(code, seed)
	st := initState()
	m := interp.New(st, mem)
	n, err := m.Run(limit)
	if err != nil {
		t.Fatalf("golden run: %v (eip=%#x)", err, st.EIP)
	}
	if !m.Halted {
		t.Fatalf("golden run did not halt in %d instructions", limit)
	}
	return st, mem, n
}

func compareMemories(t *testing.T, what string, a, b *x86.Memory) {
	t.Helper()
	for i := uint32(0); i < tDataSize; i += 4 {
		if av, bv := a.Read32(tDataBase+i), b.Read32(tDataBase+i); av != bv {
			t.Fatalf("%s: memory differs at %#x: golden=%#x vm=%#x", what, tDataBase+i, av, bv)
		}
	}
	for i := uint32(0); i < 256; i += 4 {
		addr := tStackTop - 256 + i
		if av, bv := a.Read32(addr), b.Read32(addr); av != bv {
			t.Fatalf("%s: stack differs at %#x: golden=%#x vm=%#x", what, addr, av, bv)
		}
	}
}

func testStrategy(t *testing.T, strat Strategy, seed int64) {
	t.Helper()
	code := buildProgram(seed)
	goldenSt, goldenMem, goldenN := goldenRun(t, code, seed, 5_000_000)

	cfg := DefaultConfig(strat)
	// Small thresholds so the SBT path is exercised by short programs.
	cfg.HotThreshold = 12
	if strat == StratInterp {
		cfg.HotThreshold = 5
	}
	mem := freshMemory(code, seed)
	vm := New(cfg, mem, initState())
	res, err := vm.Run(goldenN + 1000)
	if err != nil {
		t.Fatalf("%v seed %d: %v", strat, seed, err)
	}
	if !res.Halted {
		t.Fatalf("%v seed %d: did not halt (instrs=%d golden=%d)", strat, seed, res.Instrs, goldenN)
	}
	if res.Instrs != goldenN {
		t.Errorf("%v seed %d: retired %d instructions, golden %d", strat, seed, res.Instrs, goldenN)
	}
	var final x86.State
	vm.nst.StoreArch(&final)
	final.EIP = goldenSt.EIP
	if !final.Equal(goldenSt) {
		t.Errorf("%v seed %d: final state differs\n  golden: R=%x F=%v\n  vm:     R=%x F=%v",
			strat, seed, goldenSt.R, goldenSt.Flags, final.R, final.Flags)
	}
	compareMemories(t, fmt.Sprintf("%v seed %d", strat, seed), goldenMem, mem)
	if res.Cycles <= 0 {
		t.Errorf("%v seed %d: no cycles charged", strat, seed)
	}
	// Cycle conservation: categories sum to the total.
	sum := 0.0
	for _, c := range res.Cat {
		sum += c
	}
	if diff := sum - res.Cycles; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("%v seed %d: category cycles %f != total %f", strat, seed, sum, res.Cycles)
	}
	// Strategy-specific sanity.
	switch strat {
	case StratRef:
		if res.SBTTranslations != 0 || res.BBTTranslations != 0 {
			t.Errorf("ref must not translate: %+v", res)
		}
		if res.X86Instrs != res.Instrs {
			t.Errorf("ref: all instructions must retire in x86-mode")
		}
	case StratSoft, StratBE:
		if res.BBTTranslations == 0 {
			t.Errorf("%v: no BBT translations", strat)
		}
		if res.SBTTranslations == 0 {
			t.Errorf("%v: hot loop not detected", strat)
		}
		if res.SBTInstrs == 0 {
			t.Errorf("%v: no instructions retired from SBT code", strat)
		}
	case StratFE:
		if res.BBTTranslations != 0 {
			t.Errorf("fe must not run BBT")
		}
		if res.SBTTranslations == 0 {
			t.Errorf("fe: hot loop not detected via BBB")
		}
	case StratInterp:
		if res.InterpInstrs == 0 {
			t.Errorf("interp: no interpreted instructions")
		}
		if res.SBTTranslations == 0 {
			t.Errorf("interp: hot loop not detected")
		}
	case StratStaged3:
		if res.InterpInstrs == 0 {
			t.Errorf("3stage: first-touch code must be interpreted")
		}
		if res.BBTTranslations == 0 {
			t.Errorf("3stage: warm code must be promoted to BBT")
		}
		if res.SBTTranslations == 0 {
			t.Errorf("3stage: hot loop not detected")
		}
	}
	if strat == StratBE && res.XltInvocations == 0 {
		t.Errorf("be: XLTx86 never used")
	}
}

func TestVMDifferentialAllStrategies(t *testing.T) {
	strategies := []Strategy{StratRef, StratSoft, StratBE, StratFE, StratInterp, StratStaged3}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				testStrategy(t, strat, seed)
			}
		})
	}
}

func TestVMInstructionBudget(t *testing.T) {
	code := buildProgram(99)
	mem := freshMemory(code, 99)
	vm := New(DefaultConfig(StratSoft), mem, initState())
	res, err := vm.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("should have stopped on budget, not halt")
	}
	if res.Instrs < 500 || res.Instrs > 500+400 {
		t.Errorf("instrs = %d, want ≈500 (block-granular overshoot allowed)", res.Instrs)
	}
}

// TestSwitchPeriod: Config.SwitchPeriod reproduces, to the bit, a run
// driven in period-long segments with the caches flushed and the
// predictor reset between them. Switching moves timing only, so over a
// budget the period does not divide it retires exactly what a plain
// run of that budget retires: the budget plus the last block.
func TestSwitchPeriod(t *testing.T) {
	prog, err := workload.App("Word", 200)
	if err != nil {
		t.Fatal(err)
	}
	const period, budget = 40_000, 150_001
	run := func(cfg Config, instrs uint64) *Result {
		t.Helper()
		res, err := New(cfg, prog.Memory(), prog.InitState()).Run(instrs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, strat := range []Strategy{StratRef, StratSoft, StratFE} {
		plain := DefaultConfig(strat)
		cfg := plain
		cfg.SwitchPeriod = period

		seg := New(plain, prog.Memory(), prog.InitState())
		var want *Result
		for done := uint64(0); done < 4*period; done += period {
			if want, err = seg.Run(done + period); err != nil {
				t.Fatal(err)
			}
			seg.Engine().Caches.Flush()
			seg.Engine().Pred.Reset()
		}
		got := run(cfg, 4*period)
		if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.Cat != want.Cat {
			t.Errorf("%v: switching run = %v cycles, %d instrs; segmented run = %v, %d",
				strat, got.Cycles, got.Instrs, want.Cycles, want.Instrs)
		}
		if base := run(plain, 4*period); base.Cycles >= got.Cycles {
			t.Errorf("%v: switching run took %v cycles, a plain run %v", strat, got.Cycles, base.Cycles)
		}

		if got, want := run(cfg, budget).Instrs, run(plain, budget).Instrs; got != want || got < budget {
			t.Errorf("%v: switching run of %d retired %d instrs, a plain run %d", strat, uint64(budget), got, want)
		}
	}
}

func TestVMSamplesMonotonic(t *testing.T) {
	code := buildProgram(7)
	mem := freshMemory(code, 7)
	vm := New(DefaultConfig(StratSoft), mem, initState())
	res, err := vm.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 3 {
		t.Fatalf("too few samples: %d", len(res.Samples))
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].Cycles < res.Samples[i-1].Cycles {
			t.Errorf("sample %d cycles decreased", i)
		}
		if res.Samples[i].Instrs < res.Samples[i-1].Instrs {
			t.Errorf("sample %d instrs decreased", i)
		}
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Instrs != res.Instrs {
		t.Errorf("final sample instrs %d != result %d", last.Instrs, res.Instrs)
	}
}

func TestStrategyProperties(t *testing.T) {
	if StratRef.UsesBBT() || StratRef.UsesSBT() {
		t.Error("ref should not translate")
	}
	if !StratSoft.UsesBBT() || !StratBE.UsesBBT() {
		t.Error("soft/be use BBT")
	}
	if StratFE.UsesBBT() {
		t.Error("fe does not use BBT")
	}
	for _, s := range []Strategy{StratInterp, StratSoft, StratBE, StratFE} {
		if !s.UsesSBT() {
			t.Errorf("%v uses SBT", s)
		}
	}
}

// TestVMDifferentialTinyCaches stresses the flush/re-translation paths:
// code caches far too small for the working set force continual
// evictions, chain invalidation and re-translation — results must stay
// exactly correct.
func TestVMDifferentialTinyCaches(t *testing.T) {
	flushedSomewhere := false
	for seed := int64(1); seed <= 6; seed++ {
		code := buildProgram(seed)
		goldenSt, goldenMem, goldenN := goldenRun(t, code, seed, 5_000_000)

		for _, strat := range []Strategy{StratSoft, StratBE} {
			cfg := DefaultConfig(strat)
			cfg.HotThreshold = 12
			cfg.BBTCacheSize = 256 // a couple of translations before flushing
			cfg.SBTCacheSize = 512
			mem := freshMemory(code, seed)
			vm := New(cfg, mem, initState())
			res, err := vm.Run(goldenN + 1000)
			if err != nil {
				t.Fatalf("%v seed %d: %v", strat, seed, err)
			}
			if !res.Halted || res.Instrs != goldenN {
				t.Fatalf("%v seed %d: instrs %d want %d halted=%v",
					strat, seed, res.Instrs, goldenN, res.Halted)
			}
			var final x86.State
			vm.nst.StoreArch(&final)
			final.EIP = goldenSt.EIP
			if !final.Equal(goldenSt) {
				t.Errorf("%v seed %d: state diverged under cache pressure", strat, seed)
			}
			compareMemories(t, "tiny-cache", goldenMem, mem)
			bbtC, _ := vm.Caches()
			if bbtC.Stats().Flushes > 0 {
				flushedSomewhere = true
			}
			if res.BBTTranslations != bbtC.Stats().Inserts {
				t.Errorf("translation accounting: %d vs %+v",
					res.BBTTranslations, bbtC.Stats())
			}
		}
	}
	if !flushedSomewhere {
		t.Error("no seed exercised the flush path; shrink the test caches")
	}
}

// TestVMDeterminism: identical runs produce identical cycle counts and
// statistics (required for reproducible experiments).
func TestVMDeterminism(t *testing.T) {
	code := buildProgram(5)
	run := func() *Result {
		mem := freshMemory(code, 5)
		cfg := DefaultConfig(StratBE)
		cfg.HotThreshold = 12
		vm := New(cfg, mem, initState())
		res, err := vm.Run(4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs || a.Cat != b.Cat {
		t.Errorf("nondeterministic simulation:\n  a: %v %v\n  b: %v %v",
			a.Cycles, a.Instrs, b.Cycles, b.Instrs)
	}
}
