package bbt

import (
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
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

// boundarySum checks the retirement-conservation invariant: the boundary
// counts across a translation's micro-ops must equal the number of
// architected instructions it covers.
func boundarySum(tr *codecache.Translation) int {
	sum := 0
	for i := range tr.Uops {
		sum += int(tr.Uops[i].Boundary)
	}
	return sum
}

func TestCondBranchBlock(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, 1)
		a.ALU(x86.ADD, 4, x86.R(x86.EAX), x86.R(x86.EBX))
		a.Label("top")
		a.Jcc(x86.CondE, "top")
	})
	tr, err := new(Scratch).Translate(mem, base, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumX86 != 3 {
		t.Errorf("numX86 = %d, want 3", tr.NumX86)
	}
	if len(tr.Exits) != 2 {
		t.Fatalf("exits = %d, want 2 (fall+taken)", len(tr.Exits))
	}
	if tr.Exits[0].Kind != codecache.ExitFall || tr.Exits[1].Kind != codecache.ExitTaken {
		t.Errorf("exit kinds: %v %v", tr.Exits[0].Kind, tr.Exits[1].Kind)
	}
	if tr.Exits[1].Target != tr.Exits[1].BranchPC {
		t.Errorf("self-branch target %#x != branch pc %#x", tr.Exits[1].Target, tr.Exits[1].BranchPC)
	}
	if got := boundarySum(tr); got != tr.NumX86 {
		t.Errorf("boundary sum %d != numX86 %d", got, tr.NumX86)
	}
	if tr.Size == 0 || tr.X86Bytes == 0 {
		t.Errorf("sizes not computed: %d %d", tr.Size, tr.X86Bytes)
	}
}

func TestCallBlock(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) {
		a.Nop()
		a.Label("f")
		a.Call("f")
	})
	tr, err := new(Scratch).Translate(mem, base, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Exits) != 1 || !tr.Exits[0].Call {
		t.Fatalf("call exit missing: %+v", tr.Exits)
	}
	if tr.Exits[0].ReturnPC == 0 {
		t.Error("call exit lacks return PC")
	}
	if got := boundarySum(tr); got != tr.NumX86 {
		t.Errorf("boundary sum %d != numX86 %d", got, tr.NumX86)
	}
}

func TestRetBlock(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) {
		a.Pop(x86.EAX)
		a.Ret()
	})
	tr, err := new(Scratch).Translate(mem, base, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	e := tr.Exits[0]
	if e.Kind != codecache.ExitIndirect || !e.Ret {
		t.Errorf("ret exit: %+v", e)
	}
}

func TestHaltBlock(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) { a.Hlt() })
	tr, err := new(Scratch).Translate(mem, base, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exits[0].Kind != codecache.ExitHalt {
		t.Errorf("exit: %v", tr.Exits[0].Kind)
	}
}

func TestComplexEmbedded(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) {
		a.MovRI(x86.ECX, 7)
		a.RepMovsd() // complex: embedded callout, not a block end
		a.Inc(x86.EAX)
		a.Ret()
	})
	tr, err := new(Scratch).Translate(mem, base, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumX86 != 4 {
		t.Errorf("numX86 = %d, want 4 (div must not end the block)", tr.NumX86)
	}
	callouts := 0
	for i := range tr.Uops {
		if tr.Uops[i].Op == fisa.UCALLOUT {
			callouts++
		}
	}
	if callouts != 1 {
		t.Errorf("callouts = %d", callouts)
	}
	if got := boundarySum(tr); got != tr.NumX86 {
		t.Errorf("boundary sum %d != numX86 %d", got, tr.NumX86)
	}
}

func TestMaxInstsCap(t *testing.T) {
	mem := assemble(t, func(a *x86.Asm) {
		for i := 0; i < 50; i++ {
			a.Nop()
		}
		a.Ret()
	})
	tr, err := new(Scratch).Translate(mem, base, Config{MaxInsts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumX86 != 10 {
		t.Errorf("numX86 = %d, want 10", tr.NumX86)
	}
	if tr.Exits[0].Kind != codecache.ExitFall || tr.Exits[0].Target != base+10 {
		t.Errorf("cap exit: %+v", tr.Exits[0])
	}
}

func TestDecodeErrorPropagates(t *testing.T) {
	mem := x86.NewMemory()
	mem.Write8(base, 0xF1) // invalid opcode
	if _, err := new(Scratch).Translate(mem, base, DefaultConfig); err == nil {
		t.Error("expected decode error")
	}
}
