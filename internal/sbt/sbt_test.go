package sbt

import (
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
	"codesignvm/internal/interp"
	"codesignvm/internal/profile"
	"codesignvm/internal/x86"
)

const base = 0x400000

func assemble(t *testing.T, build func(a *x86.Asm)) *x86.Memory {
	t.Helper()
	a := x86.NewAsm(base)
	build(a)
	code, err := a.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	mem := x86.NewMemory()
	mem.WriteBytes(base, code)
	return mem
}

func boundarySum(tr *codecache.Translation) int {
	sum := 0
	for i := range tr.Uops {
		sum += int(tr.Uops[i].Boundary)
	}
	return sum
}

// loopProgram builds a counted loop whose body crosses a biased branch,
// and an edge profile that says the branch is usually taken.
func loopProgram(t *testing.T) (*x86.Memory, *profile.EdgeProfile) {
	mem := assemble(t, func(a *x86.Asm) {
		a.Label("loop") // superblock entry
		a.ALU(x86.ADD, 4, x86.R(x86.EAX), x86.R(x86.EDX))
		a.ALUI(x86.CMP, 4, x86.R(x86.EAX), 100)
		a.Jcc(x86.CondL, "cont") // biased taken
		a.MovRI(x86.EAX, 0)      // rare path
		a.Label("cont")
		a.Inc(x86.EDX)
		a.Dec(x86.ECX)
		a.Jcc(x86.CondNE, "loop") // back edge
		a.Ret()
	})
	edges := profile.NewEdgeProfile()
	// Find branch PCs by decoding.
	pcs := decodePCs(t, mem)
	// First Jcc: mostly taken to "cont".
	for i := 0; i < 90; i++ {
		edges.Record(pcs["jcc1"], pcs["cont"])
	}
	for i := 0; i < 10; i++ {
		edges.Record(pcs["jcc1"], pcs["rare"])
	}
	// Back edge: mostly taken to loop.
	for i := 0; i < 95; i++ {
		edges.Record(pcs["jcc2"], base)
	}
	for i := 0; i < 5; i++ {
		edges.Record(pcs["jcc2"], pcs["ret"])
	}
	return mem, edges
}

// decodePCs walks the loop program and names its interesting PCs.
func decodePCs(t *testing.T, mem *x86.Memory) map[string]uint32 {
	t.Helper()
	out := map[string]uint32{}
	pc := uint32(base)
	idx := 0
	for {
		in, err := x86.DecodeMem(mem, pc)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case in.Op == x86.JCC && idx == 0:
			out["jcc1"] = pc
			out["rare"] = pc + uint32(in.Len)
			out["cont"] = in.BranchTarget(pc)
			idx = 1
		case in.Op == x86.JCC:
			out["jcc2"] = pc
			out["ret"] = pc + uint32(in.Len)
		case in.Op == x86.RET:
			return out
		}
		pc += uint32(in.Len)
	}
}

func TestSuperblockFormation(t *testing.T) {
	mem, edges := loopProgram(t)
	tr, err := new(Former).Form(mem, base, edges, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != codecache.KindSBT {
		t.Error("wrong kind")
	}
	// The superblock covers the hot path: add, cmp, jcc, inc, dec and
	// the back-edge jcc (the rare mov is excluded).
	if tr.NumX86 != 6 {
		t.Errorf("numX86 = %d, want 6", tr.NumX86)
	}
	if got := boundarySum(tr); got != tr.NumX86 {
		t.Errorf("boundary sum %d != numX86 %d", got, tr.NumX86)
	}
	// Exits: side exit to the rare path, and the back-edge pair.
	var side, backTaken bool
	for _, e := range tr.Exits {
		if e.Kind == codecache.ExitSide {
			side = true
		}
		if e.Target == base {
			backTaken = true
		}
	}
	if !side {
		t.Error("missing side exit to the rare path")
	}
	if !backTaken {
		t.Error("missing back-edge exit to the loop head")
	}
}

// TestSuperblockDifferential executes the formed superblock against the
// interpreter over one hot-path iteration (including the side exit path).
func TestSuperblockDifferential(t *testing.T) {
	mem, edges := loopProgram(t)
	tr, err := new(Former).Form(mem, base, edges, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		eax  uint32
	}{
		{"hot path", 1},    // cmp 100: less → stays on path
		{"side exit", 200}, // rare path taken
	} {
		t.Run(tc.name, func(t *testing.T) {
			var nst fisa.NativeState
			nst.R[fisa.REAX] = tc.eax
			nst.R[fisa.REDX] = 5
			nst.R[fisa.RECX] = 3
			kind, idx, err := fisa.Exec(&fisa.Env{St: &nst, Mem: mem}, tr.Uops, 0, &fisa.ExecStats{})
			if err != nil {
				t.Fatal(err)
			}
			if kind != fisa.StopExit {
				t.Fatalf("stop: %v", kind)
			}
			exit := tr.Exits[tr.Uops[idx].Imm]

			// Interpreter reference: run from the entry until reaching
			// the exit's target.
			st := &x86.State{EIP: base}
			st.R[x86.EAX] = tc.eax
			st.R[x86.EDX] = 5
			st.R[x86.ECX] = 3
			im := interp.New(st, mem)
			for steps := 0; steps < 100; steps++ {
				if st.EIP == exit.Target && steps > 0 {
					break
				}
				if _, err := im.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if st.EIP != exit.Target {
				t.Fatalf("interpreter never reached exit target %#x", exit.Target)
			}
			var got x86.State
			nst.StoreArch(&got)
			got.EIP = st.EIP
			if !got.Equal(st) {
				t.Errorf("state mismatch:\n  interp R=%x F=%v\n  sbt    R=%x F=%v",
					st.R, st.Flags, got.R, got.Flags)
			}
		})
	}
}

func TestFusionHappens(t *testing.T) {
	// Dependence-chained code fuses heavily.
	mem := assemble(t, func(a *x86.Asm) {
		a.ALU(x86.ADD, 4, x86.R(x86.EAX), x86.R(x86.EDX))
		a.ALU(x86.ADD, 4, x86.R(x86.EBX), x86.R(x86.EAX))
		a.ALUI(x86.CMP, 4, x86.R(x86.EBX), 10)
		a.Label("self")
		a.Jcc(x86.CondE, "self")
	})
	edges := profile.NewEdgeProfile()
	tr, err := new(Former).Form(mem, base, edges, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for i := range tr.Uops {
		if tr.Uops[i].Fused {
			pairs++
		}
	}
	if pairs == 0 {
		t.Errorf("no pairs fused in chained code: %v", tr.Uops)
	}
	// cmp+jcc should be one of the pairs.
	foundCmpBr := false
	for i := 0; i+1 < len(tr.Uops); i++ {
		if tr.Uops[i].Fused && tr.Uops[i+1].Op == fisa.UBR {
			foundCmpBr = true
		}
	}
	if !foundCmpBr {
		t.Error("cmp+branch pair not fused")
	}
}

func TestDCEReducesCode(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) {
		// Redundant flag setters and a dead temp chain via registers.
		a.ALUI(x86.ADD, 4, x86.R(x86.EAX), 1)
		a.ALUI(x86.ADD, 4, x86.R(x86.EAX), 2)
		a.ALUI(x86.ADD, 4, x86.R(x86.EAX), 3)
		a.Ret()
	})
	edges := profile.NewEdgeProfile()
	full := DefaultConfig
	full.EnableCopyProp = true
	full.EnableDCE = true
	bare := DefaultConfig
	bare.EnableFusion = false
	opt, err := new(Former).Form(mem, base, edges, full)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := new(Former).Form(mem, base, edges, bare)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumUops > raw.NumUops {
		t.Errorf("optimizer grew code: %d > %d", opt.NumUops, raw.NumUops)
	}
	if opt.NumX86 != raw.NumX86 {
		t.Errorf("optimizer changed coverage: %d vs %d", opt.NumX86, raw.NumX86)
	}
	if boundarySum(opt) != opt.NumX86 {
		t.Errorf("boundary conservation violated after optimization")
	}
}

func TestJumpStraightening(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) {
		a.Inc(x86.EAX)
		a.Jmp("next")
		a.MovRI(x86.EAX, 0xDEAD) // skipped padding
		a.Label("next")
		a.Inc(x86.EDX)
		a.Ret()
	})
	edges := profile.NewEdgeProfile()
	tr, err := new(Former).Form(mem, base, edges, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	// inc, jmp, inc, ret = 4 instructions covered, jump elided.
	if tr.NumX86 != 4 {
		t.Errorf("numX86 = %d, want 4", tr.NumX86)
	}
	if boundarySum(tr) != 4 {
		t.Errorf("boundary sum = %d, want 4 (elided jump must still retire)", boundarySum(tr))
	}
}
