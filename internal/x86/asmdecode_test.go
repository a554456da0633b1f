package x86

import (
	"math/rand"
	"testing"
)

// encodeOne assembles a single instruction via emit and decodes it back.
func encodeOne(t *testing.T, emit func(a *Asm)) (Inst, []byte) {
	t.Helper()
	a := NewAsm(0x400000)
	emit(a)
	code, err := a.Finalize()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	in, err := Decode(code)
	if err != nil {
		t.Fatalf("decode % x: %v", code, err)
	}
	if int(in.Len) != len(code) {
		t.Fatalf("decoded length %d != emitted %d (% x)", in.Len, len(code), code)
	}
	return in, code
}

func opEqual(a, b Operand) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindReg:
		return a.Reg == b.Reg
	case KindMem:
		return a.Base == b.Base && a.Index == b.Index && a.Disp == b.Disp &&
			(a.Index == NoIndex || a.Scale == b.Scale)
	}
	return true
}

func checkInst(t *testing.T, got Inst, want Inst, what string) {
	t.Helper()
	if got.Op != want.Op || got.Width != want.Width || got.Cond != want.Cond ||
		got.HasImm != want.HasImm || (want.HasImm && got.Imm != want.Imm) ||
		!opEqual(got.Dst, want.Dst) || !opEqual(got.Src, want.Src) || got.Rep != want.Rep {
		t.Errorf("%s: decoded %+v, want %+v", what, got, want)
	}
}

func TestRoundTripALUForms(t *testing.T) {
	mem := MSIB(EBX, ESI, 4, 0x1234)
	for _, op := range []Op{ADD, ADC, SUB, SBB, AND, OR, XOR, CMP} {
		op := op
		// rm32, r32
		in, _ := encodeOne(t, func(a *Asm) { a.ALU(op, 4, mem, R(ECX)) })
		checkInst(t, in, Inst{Op: op, Width: 4, Dst: mem, Src: R(ECX)}, op.String()+" m,r")
		// r32, rm32
		in, _ = encodeOne(t, func(a *Asm) { a.ALU(op, 4, R(EDX), mem) })
		checkInst(t, in, Inst{Op: op, Width: 4, Dst: R(EDX), Src: mem}, op.String()+" r,m")
		// r8, r8
		in, _ = encodeOne(t, func(a *Asm) { a.ALU(op, 1, R(EBX), R(EAX)) })
		checkInst(t, in, Inst{Op: op, Width: 1, Dst: R(EBX), Src: R(EAX)}, op.String()+" r8,r8")
		// r16, r16 (prefix)
		in, _ = encodeOne(t, func(a *Asm) { a.ALU(op, 2, R(ESI), R(EDI)) })
		checkInst(t, in, Inst{Op: op, Width: 2, Dst: R(ESI), Src: R(EDI)}, op.String()+" r16,r16")
		// rm32, imm8 (0x83 short form)
		in, _ = encodeOne(t, func(a *Asm) { a.ALUI(op, 4, R(EBP), -5) })
		checkInst(t, in, Inst{Op: op, Width: 4, Dst: R(EBP), Imm: -5, HasImm: true}, op.String()+" r,imm8")
		// rm32, imm32
		in, _ = encodeOne(t, func(a *Asm) { a.ALUI(op, 4, mem, 0x123456) })
		checkInst(t, in, Inst{Op: op, Width: 4, Dst: mem, Imm: 0x123456, HasImm: true}, op.String()+" m,imm32")
		// rm8, imm8
		in, _ = encodeOne(t, func(a *Asm) { a.ALUI(op, 1, R(ECX), 0x7F) })
		checkInst(t, in, Inst{Op: op, Width: 1, Dst: R(ECX), Imm: 0x7F, HasImm: true}, op.String()+" r8,imm8")
	}
}

func TestRoundTripMovLea(t *testing.T) {
	m1 := M(EBP, -8)
	m2 := MAbs(0x10000)
	m3 := MSIB(ESP, EDI, 2, 16) // ESP base forces SIB
	in, _ := encodeOne(t, func(a *Asm) { a.Mov(4, m1, R(EAX)) })
	checkInst(t, in, Inst{Op: MOV, Width: 4, Dst: m1, Src: R(EAX)}, "mov m,r")
	in, _ = encodeOne(t, func(a *Asm) { a.Mov(4, R(EAX), m2) })
	checkInst(t, in, Inst{Op: MOV, Width: 4, Dst: R(EAX), Src: m2}, "mov r,abs")
	in, _ = encodeOne(t, func(a *Asm) { a.Mov(1, m3, R(EDX)) })
	checkInst(t, in, Inst{Op: MOV, Width: 1, Dst: m3, Src: R(EDX)}, "mov8 sib")
	in, _ = encodeOne(t, func(a *Asm) { a.MovRI(ESI, 0xCAFEBABE) })
	checkInst(t, in, Inst{Op: MOV, Width: 4, Dst: R(ESI), Imm: int32(-0x35014542), HasImm: true}, "mov r,imm32") // 0xCAFEBABE
	in, _ = encodeOne(t, func(a *Asm) { a.MovMI(4, m1, -100) })
	checkInst(t, in, Inst{Op: MOV, Width: 4, Dst: m1, Imm: -100, HasImm: true}, "mov m,imm")
	in, _ = encodeOne(t, func(a *Asm) { a.Lea(EDI, m3) })
	checkInst(t, in, Inst{Op: LEA, Width: 4, Dst: R(EDI), Src: m3}, "lea")
	// No-base scaled index.
	m4 := Operand{Kind: KindMem, Base: NoBase, Index: int8(ECX), Scale: 8, Disp: 0x4000}
	in, _ = encodeOne(t, func(a *Asm) { a.Lea(EAX, m4) })
	checkInst(t, in, Inst{Op: LEA, Width: 4, Dst: R(EAX), Src: m4}, "lea idx*8")
}

func TestRoundTripExtend(t *testing.T) {
	m := M(ESI, 4)
	in, _ := encodeOne(t, func(a *Asm) { a.Movzx(EAX, m, 1) })
	checkInst(t, in, Inst{Op: MOVZX, Width: 1, Dst: R(EAX), Src: m}, "movzx8")
	in, _ = encodeOne(t, func(a *Asm) { a.Movzx(EAX, R(ECX), 2) })
	checkInst(t, in, Inst{Op: MOVZX, Width: 2, Dst: R(EAX), Src: R(ECX)}, "movzx16")
	in, _ = encodeOne(t, func(a *Asm) { a.Movsx(EDX, m, 1) })
	checkInst(t, in, Inst{Op: MOVSX, Width: 1, Dst: R(EDX), Src: m}, "movsx8")
	in, _ = encodeOne(t, func(a *Asm) { a.Movsx(EDX, R(EBX), 2) })
	checkInst(t, in, Inst{Op: MOVSX, Width: 2, Dst: R(EDX), Src: R(EBX)}, "movsx16")
}

func TestRoundTripUnary(t *testing.T) {
	in, _ := encodeOne(t, func(a *Asm) { a.Inc(EAX) })
	checkInst(t, in, Inst{Op: INC, Width: 4, Dst: R(EAX)}, "inc r")
	in, _ = encodeOne(t, func(a *Asm) { a.Dec(EDI) })
	checkInst(t, in, Inst{Op: DEC, Width: 4, Dst: R(EDI)}, "dec r")
	m := M(EBX, 0)
	in, _ = encodeOne(t, func(a *Asm) { a.IncM(4, m) })
	checkInst(t, in, Inst{Op: INC, Width: 4, Dst: m}, "inc m")
	in, _ = encodeOne(t, func(a *Asm) { a.DecM(1, m) })
	checkInst(t, in, Inst{Op: DEC, Width: 1, Dst: m}, "dec m8")
	in, _ = encodeOne(t, func(a *Asm) { a.Neg(4, R(ECX)) })
	checkInst(t, in, Inst{Op: NEG, Width: 4, Dst: R(ECX)}, "neg")
	in, _ = encodeOne(t, func(a *Asm) { a.Not(4, m) })
	checkInst(t, in, Inst{Op: NOT, Width: 4, Dst: m}, "not m")
}

func TestRoundTripMulShift(t *testing.T) {
	m := M(EDX, 12)
	in, _ := encodeOne(t, func(a *Asm) { a.Imul(EAX, m) })
	checkInst(t, in, Inst{Op: IMUL, Width: 4, Dst: R(EAX), Src: m}, "imul r,m")
	in, _ = encodeOne(t, func(a *Asm) { a.ImulI(EBX, R(ECX), 100) })
	checkInst(t, in, Inst{Op: IMUL, Width: 4, Dst: R(EBX), Src: R(ECX), Imm: 100, HasImm: true}, "imul imm8")
	in, _ = encodeOne(t, func(a *Asm) { a.ImulI(EBX, R(ECX), 100000) })
	checkInst(t, in, Inst{Op: IMUL, Width: 4, Dst: R(EBX), Src: R(ECX), Imm: 100000, HasImm: true}, "imul imm32")
	for _, op := range []Op{SHL, SHR, SAR} {
		op := op
		in, _ = encodeOne(t, func(a *Asm) { a.ShiftI(op, 4, R(EAX), 5) })
		checkInst(t, in, Inst{Op: op, Width: 4, Dst: R(EAX), Imm: 5, HasImm: true}, op.String()+" imm")
		in, _ = encodeOne(t, func(a *Asm) { a.ShiftI(op, 4, R(EAX), 1) })
		checkInst(t, in, Inst{Op: op, Width: 4, Dst: R(EAX), Imm: 1, HasImm: true}, op.String()+" by1")
		in, _ = encodeOne(t, func(a *Asm) { a.ShiftCL(op, 4, R(EDX)) })
		checkInst(t, in, Inst{Op: op, Width: 4, Dst: R(EDX), Src: R(ECX)}, op.String()+" cl")
	}
}

func TestRoundTripStack(t *testing.T) {
	in, _ := encodeOne(t, func(a *Asm) { a.Push(EBP) })
	checkInst(t, in, Inst{Op: PUSH, Width: 4, Dst: R(EBP)}, "push r")
	in, _ = encodeOne(t, func(a *Asm) { a.Pop(EBP) })
	checkInst(t, in, Inst{Op: POP, Width: 4, Dst: R(EBP)}, "pop r")
	in, _ = encodeOne(t, func(a *Asm) { a.PushI(42) })
	checkInst(t, in, Inst{Op: PUSH, Width: 4, Imm: 42, HasImm: true}, "push imm8")
	in, _ = encodeOne(t, func(a *Asm) { a.PushI(0x12345) })
	checkInst(t, in, Inst{Op: PUSH, Width: 4, Imm: 0x12345, HasImm: true}, "push imm32")
}

func TestRoundTripMisc(t *testing.T) {
	in, _ := encodeOne(t, func(a *Asm) { a.Setcc(CondNE, R(EAX)) })
	checkInst(t, in, Inst{Op: SETCC, Width: 1, Cond: CondNE, Dst: R(EAX)}, "setne")
	in, _ = encodeOne(t, func(a *Asm) { a.Cdq() })
	checkInst(t, in, Inst{Op: CDQ, Width: 4}, "cdq")
	in, _ = encodeOne(t, func(a *Asm) { a.Nop() })
	checkInst(t, in, Inst{Op: NOP, Width: 4}, "nop")
	in, _ = encodeOne(t, func(a *Asm) { a.Hlt() })
	checkInst(t, in, Inst{Op: HLT, Width: 4}, "hlt")
	in, _ = encodeOne(t, func(a *Asm) { a.Ret() })
	checkInst(t, in, Inst{Op: RET, Width: 4}, "ret")
	in, _ = encodeOne(t, func(a *Asm) { a.RetI(8) })
	checkInst(t, in, Inst{Op: RET, Width: 4, Imm: 8, HasImm: true}, "ret 8")
	in, _ = encodeOne(t, func(a *Asm) { a.Test(4, R(EAX), EDX) })
	checkInst(t, in, Inst{Op: TEST, Width: 4, Dst: R(EAX), Src: R(EDX)}, "test r,r")
	in, _ = encodeOne(t, func(a *Asm) { a.TestI(4, R(EAX), 0xFF) })
	checkInst(t, in, Inst{Op: TEST, Width: 4, Dst: R(EAX), Imm: 0xFF, HasImm: true}, "test imm")
	in, _ = encodeOne(t, func(a *Asm) { a.JmpReg(EAX) })
	checkInst(t, in, Inst{Op: JMP, Width: 4, Src: R(EAX)}, "jmp r")
	in, _ = encodeOne(t, func(a *Asm) { a.CallReg(EBX) })
	checkInst(t, in, Inst{Op: CALL, Width: 4, Src: R(EBX)}, "call r")
	m := M(ESP, 4)
	in, _ = encodeOne(t, func(a *Asm) { a.JmpMem(m) })
	checkInst(t, in, Inst{Op: JMP, Width: 4, Src: m}, "jmp m")
}

func TestRoundTripComplex(t *testing.T) {
	in, _ := encodeOne(t, func(a *Asm) { a.Div(R(ECX)) })
	checkInst(t, in, Inst{Op: DIV, Width: 4, Src: R(ECX)}, "div")
	in, _ = encodeOne(t, func(a *Asm) { a.IDiv(R(ESI)) })
	checkInst(t, in, Inst{Op: IDIV, Width: 4, Src: R(ESI)}, "idiv")
	in, _ = encodeOne(t, func(a *Asm) { a.Mul1(R(EDX)) })
	checkInst(t, in, Inst{Op: MUL1, Width: 4, Src: R(EDX)}, "mul")
	in, _ = encodeOne(t, func(a *Asm) { a.RepMovsd() })
	checkInst(t, in, Inst{Op: MOVS, Width: 4, Rep: true}, "rep movsd")
	in, _ = encodeOne(t, func(a *Asm) { a.RepStosb() })
	checkInst(t, in, Inst{Op: STOS, Width: 1, Rep: true}, "rep stosb")
	if !in.Op.IsComplex() {
		t.Error("STOS should be complex class")
	}
}

func TestBranchTargets(t *testing.T) {
	a := NewAsm(0x400000)
	a.Label("top")
	a.Nop()
	a.Nop()
	a.Jcc(CondNE, "top")
	a.Jmp("end")
	a.Call("top")
	a.Label("end")
	a.Hlt()
	code, err := a.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400000 + 2) // after the two NOPs
	in, err := Decode(code[2:])
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != JCC || in.BranchTarget(pc) != 0x400000 {
		t.Errorf("jcc target = %#x, want 0x400000", in.BranchTarget(pc))
	}
	pc += uint32(in.Len)
	in2, err := Decode(code[pc-0x400000:])
	if err != nil {
		t.Fatal(err)
	}
	endAddr := a.labels["end"]
	if in2.Op != JMP || in2.BranchTarget(pc) != endAddr {
		t.Errorf("jmp target = %#x, want %#x", in2.BranchTarget(pc), endAddr)
	}
	pc += uint32(in2.Len)
	in3, err := Decode(code[pc-0x400000:])
	if err != nil {
		t.Fatal(err)
	}
	if in3.Op != CALL || in3.BranchTarget(pc) != 0x400000 {
		t.Errorf("call target = %#x", in3.BranchTarget(pc))
	}
}

func TestUndefinedLabel(t *testing.T) {
	a := NewAsm(0)
	a.Jmp("nowhere")
	if _, err := a.Finalize(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestDuplicateLabel(t *testing.T) {
	a := NewAsm(0)
	a.Label("x")
	a.Label("x")
	a.Nop()
	if _, err := a.Finalize(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

// randMem produces a random valid memory operand.
func randMem(rng *rand.Rand) Operand {
	op := Operand{Kind: KindMem, Base: NoBase, Index: NoIndex, Scale: 1}
	switch rng.Intn(4) {
	case 0: // absolute
		op.Disp = int32(rng.Uint32())
	case 1: // base + disp
		op.Base = int8(rng.Intn(8))
		op.Disp = randDisp(rng)
	case 2: // base + index*scale + disp
		op.Base = int8(rng.Intn(8))
		op.Index = int8(rng.Intn(8))
		if op.Index == int8(ESP) {
			op.Index = int8(EBP)
		}
		op.Scale = []uint8{1, 2, 4, 8}[rng.Intn(4)]
		op.Disp = randDisp(rng)
	case 3: // index*scale + disp (no base)
		op.Index = int8(rng.Intn(8))
		if op.Index == int8(ESP) {
			op.Index = int8(EAX)
		}
		op.Scale = []uint8{1, 2, 4, 8}[rng.Intn(4)]
		op.Disp = int32(rng.Uint32())
	}
	return op
}

func randDisp(rng *rand.Rand) int32 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return int32(int8(rng.Uint32()))
	default:
		return int32(rng.Uint32())
	}
}

// TestRoundTripRandom fuzzes the assembler/decoder pair across randomized
// operand shapes for the data-processing instructions.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20060618))
	widths := []uint8{1, 2, 4}
	alu := []Op{ADD, ADC, SUB, SBB, AND, OR, XOR, CMP}
	for i := 0; i < 3000; i++ {
		w := widths[rng.Intn(3)]
		mem := randMem(rng)
		reg := Reg(rng.Intn(8))
		op := alu[rng.Intn(len(alu))]
		var want Inst
		a := NewAsm(uint32(rng.Uint32()) & 0xFFFFF000)
		switch rng.Intn(5) {
		case 0:
			a.ALU(op, w, mem, R(reg))
			want = Inst{Op: op, Width: w, Dst: mem, Src: R(reg)}
		case 1:
			a.ALU(op, w, R(reg), mem)
			want = Inst{Op: op, Width: w, Dst: R(reg), Src: mem}
		case 2:
			imm := int32(int16(rng.Uint32()))
			if w == 1 {
				imm = int32(int8(imm))
			}
			a.ALUI(op, w, mem, imm)
			want = Inst{Op: op, Width: w, Dst: mem, Imm: imm, HasImm: true}
		case 3:
			a.Mov(w, mem, R(reg))
			want = Inst{Op: MOV, Width: w, Dst: mem, Src: R(reg)}
		case 4:
			a.Mov(w, R(reg), mem)
			want = Inst{Op: MOV, Width: w, Dst: R(reg), Src: mem}
		}
		code, err := a.Finalize()
		if err != nil {
			t.Fatalf("iter %d: assemble: %v", i, err)
		}
		if len(code) > MaxInstLen {
			t.Fatalf("iter %d: instruction too long: % x", i, code)
		}
		in, err := Decode(code)
		if err != nil {
			t.Fatalf("iter %d: decode % x: %v", i, code, err)
		}
		if int(in.Len) != len(code) {
			t.Fatalf("iter %d: length %d != %d", i, in.Len, len(code))
		}
		checkInst(t, in, want, "random")
		if t.Failed() {
			t.Fatalf("iter %d: code % x", i, code)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{}); err == nil {
		t.Error("empty: want error")
	}
	if _, err := Decode([]byte{0x0F}); err == nil {
		t.Error("truncated escape: want error")
	}
	if _, err := Decode([]byte{0x81, 0xC0}); err == nil {
		t.Error("truncated imm: want error")
	}
	if _, err := Decode([]byte{0xF1}); err == nil {
		t.Error("bad opcode: want error")
	}
	if _, err := Decode([]byte{0x66}); err == nil {
		t.Error("prefix only: want error")
	}
}

func TestRoundTripNewOps(t *testing.T) {
	m := M(EBX, 8)
	in, _ := encodeOne(t, func(a *Asm) { a.Xchg(4, m, EDX) })
	checkInst(t, in, Inst{Op: XCHG, Width: 4, Dst: m, Src: R(EDX)}, "xchg m,r")
	in, _ = encodeOne(t, func(a *Asm) { a.Xchg(1, R(EAX), ECX) })
	checkInst(t, in, Inst{Op: XCHG, Width: 1, Dst: R(EAX), Src: R(ECX)}, "xchg8")
	in, _ = encodeOne(t, func(a *Asm) { a.Cmov(CondNE, ESI, m) })
	checkInst(t, in, Inst{Op: CMOVCC, Width: 4, Cond: CondNE, Dst: R(ESI), Src: m}, "cmovne")
	in, _ = encodeOne(t, func(a *Asm) { a.ShiftI(ROL, 4, R(EAX), 7) })
	checkInst(t, in, Inst{Op: ROL, Width: 4, Dst: R(EAX), Imm: 7, HasImm: true}, "rol imm")
	in, _ = encodeOne(t, func(a *Asm) { a.ShiftCL(ROR, 2, R(EDX)) })
	checkInst(t, in, Inst{Op: ROR, Width: 2, Dst: R(EDX), Src: R(ECX)}, "ror cl")
}

func TestRotateFlags(t *testing.T) {
	// ROL 0x80000001 by 1 -> 0x00000003, CF = wrapped bit = 1.
	res, f := FlagsRol(0, 0x80000001, 1, 4)
	if res != 3 || !f.Test(FlagCF) {
		t.Errorf("rol: res=%#x flags=%v", res, f)
	}
	// Full rotation by width returns the value unchanged.
	res, _ = FlagsRol(0, 0xDEADBEEF, 32, 4)
	if res != 0xDEADBEEF {
		t.Errorf("rol 32: %#x", res)
	}
	// ROR 1 by 1 -> 0x80000000, CF = MSB = 1, OF = msb^msb2 = 1.
	res, f = FlagsRor(0, 1, 1, 4)
	if res != 0x80000000 || !f.Test(FlagCF) || !f.Test(FlagOF) {
		t.Errorf("ror: res=%#x flags=%v", res, f)
	}
	// 8-bit rotate.
	res, _ = FlagsRol(0, 0x81, 1, 1)
	if res != 0x03 {
		t.Errorf("rol8: %#x", res)
	}
	// Count 0: unchanged, flags preserved.
	old := FlagZF | FlagCF
	res, f = FlagsRor(old, 5, 0, 4)
	if res != 5 || f != old {
		t.Errorf("ror 0: res=%d f=%v", res, f)
	}
	// SZP flags preserved across rotates (rotates touch only CF/OF).
	_, f = FlagsRol(FlagZF|FlagSF|FlagPF, 1, 4, 4)
	if !f.Test(FlagZF) || !f.Test(FlagSF) || !f.Test(FlagPF) {
		t.Errorf("rotate clobbered SZP: %v", f)
	}
}
