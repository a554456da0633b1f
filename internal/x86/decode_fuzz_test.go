package x86

import (
	"testing"
)

// fuzzArgs draws operands from fuzz input, yielding zeros once it runs out.
type fuzzArgs struct{ data []byte }

func (r *fuzzArgs) byte() uint8 {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzArgs) i32() int32 {
	return int32(r.byte()) | int32(r.byte())<<8 | int32(r.byte())<<16 | int32(r.byte())<<24
}

func (r *fuzzArgs) reg() Reg { return Reg(r.byte() & 7) }

func (r *fuzzArgs) width() uint8 { return []uint8{1, 2, 4}[r.byte()%3] }

// immFor draws an immediate representable at the width.
func (r *fuzzArgs) immFor(w uint8) int32 {
	v := r.i32()
	switch w {
	case 1:
		return int32(int8(v))
	case 2:
		return int32(int16(v))
	}
	return v
}

func (r *fuzzArgs) disp() int32 {
	switch r.byte() % 3 {
	case 0:
		return 0
	case 1:
		return int32(int8(r.byte()))
	}
	return r.i32()
}

// mem draws a memory operand of every shape the assembler encodes.
func (r *fuzzArgs) mem() Operand {
	op := Operand{Kind: KindMem, Base: NoBase, Index: NoIndex, Scale: 1}
	shape := r.byte() % 4
	if shape == 1 || shape == 2 {
		op.Base = int8(r.reg())
	}
	if shape >= 2 {
		if op.Index = int8(r.reg()); op.Index == int8(ESP) {
			op.Index = int8(EBP) // ESP cannot index
		}
		op.Scale = 1 << (r.byte() & 3)
	}
	if op.Base == NoBase {
		op.Disp = r.i32()
	} else {
		op.Disp = r.disp()
	}
	return op
}

// rm draws a register or memory operand.
func (r *fuzzArgs) rm() Operand {
	if r.byte()&1 == 0 {
		return R(r.reg())
	}
	return r.mem()
}

const fuzzAsmBase = 0x400000

// emitFuzzed assembles the one instruction the input selects and returns
// what it must decode to. Every emitter of Asm has a case.
func emitFuzzed(a *Asm, r *fuzzArgs) Inst {
	alu := [...]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
	shifts := [...]Op{ROL, ROR, SHL, SHR, SAR}
	// Direct branches target the instruction's own start.
	a.Label("self")
	rel := func(in Inst) Inst { in.Imm, in.HasImm = -int32(a.Len()), true; return in }
	switch sel := r.byte() % 43; sel {
	case 0:
		op, w, dst, src := alu[r.byte()&7], r.width(), r.rm(), r.reg()
		a.ALU(op, w, dst, R(src))
		return Inst{Op: op, Width: w, Dst: dst, Src: R(src)}
	case 1:
		op, w, dst, src := alu[r.byte()&7], r.width(), r.reg(), r.mem()
		a.ALU(op, w, R(dst), src)
		return Inst{Op: op, Width: w, Dst: R(dst), Src: src}
	case 2:
		op, w, dst := alu[r.byte()&7], r.width(), r.rm()
		imm := r.immFor(w)
		a.ALUI(op, w, dst, imm)
		return Inst{Op: op, Width: w, Dst: dst, Imm: imm, HasImm: true}
	case 3:
		w, dst, src := r.width(), r.rm(), r.reg()
		a.Mov(w, dst, R(src))
		return Inst{Op: MOV, Width: w, Dst: dst, Src: R(src)}
	case 4:
		w, dst, src := r.width(), r.reg(), r.mem()
		a.Mov(w, R(dst), src)
		return Inst{Op: MOV, Width: w, Dst: R(dst), Src: src}
	case 5:
		w, dst, src := r.width(), r.reg(), r.reg()
		a.MovRR(w, dst, src)
		return Inst{Op: MOV, Width: w, Dst: R(dst), Src: R(src)}
	case 6:
		dst, imm := r.reg(), r.i32()
		a.MovRI(dst, uint32(imm))
		return Inst{Op: MOV, Width: 4, Dst: R(dst), Imm: imm, HasImm: true}
	case 7:
		w, dst := r.width(), r.rm()
		imm := r.immFor(w)
		a.MovMI(w, dst, imm)
		return Inst{Op: MOV, Width: w, Dst: dst, Imm: imm, HasImm: true}
	case 8, 9:
		dst, src, w := r.reg(), r.rm(), 1+r.byte()&1
		if sel == 8 {
			a.Movzx(dst, src, w)
			return Inst{Op: MOVZX, Width: w, Dst: R(dst), Src: src}
		}
		a.Movsx(dst, src, w)
		return Inst{Op: MOVSX, Width: w, Dst: R(dst), Src: src}
	case 10:
		dst, src := r.reg(), r.mem()
		a.Lea(dst, src)
		return Inst{Op: LEA, Width: 4, Dst: R(dst), Src: src}
	case 11:
		w, dst, src := r.width(), r.rm(), r.reg()
		a.Test(w, dst, src)
		return Inst{Op: TEST, Width: w, Dst: dst, Src: R(src)}
	case 12:
		w, dst := r.width(), r.rm()
		imm := r.immFor(w)
		a.TestI(w, dst, imm)
		return Inst{Op: TEST, Width: w, Dst: dst, Imm: imm, HasImm: true}
	case 13, 14, 15, 16:
		dst := r.reg()
		op := [...]Op{INC, DEC, PUSH, POP}[sel-13]
		[...]func(Reg){a.Inc, a.Dec, a.Push, a.Pop}[sel-13](dst)
		return Inst{Op: op, Width: 4, Dst: R(dst)}
	case 17, 18, 19, 20:
		w, dst := r.width(), r.rm()
		op := [...]Op{INC, DEC, NEG, NOT}[sel-17]
		[...]func(uint8, Operand){a.IncM, a.DecM, a.Neg, a.Not}[sel-17](w, dst)
		return Inst{Op: op, Width: w, Dst: dst}
	case 21:
		dst, src := r.reg(), r.rm()
		a.Imul(dst, src)
		return Inst{Op: IMUL, Width: 4, Dst: R(dst), Src: src}
	case 22:
		dst, src, imm := r.reg(), r.rm(), r.i32()
		a.ImulI(dst, src, imm)
		return Inst{Op: IMUL, Width: 4, Dst: R(dst), Src: src, Imm: imm, HasImm: true}
	case 23:
		op, w, dst, count := shifts[r.byte()%5], r.width(), r.rm(), r.byte()&31
		a.ShiftI(op, w, dst, count)
		return Inst{Op: op, Width: w, Dst: dst, Imm: int32(count), HasImm: true}
	case 24:
		op, w, dst := shifts[r.byte()%5], r.width(), r.rm()
		a.ShiftCL(op, w, dst)
		return Inst{Op: op, Width: w, Dst: dst, Src: R(ECX)}
	case 25:
		w, dst, src := r.width(), r.rm(), r.reg()
		a.Xchg(w, dst, src)
		return Inst{Op: XCHG, Width: w, Dst: dst, Src: R(src)}
	case 26:
		cond, dst, src := Cond(r.byte()&15), r.reg(), r.rm()
		a.Cmov(cond, dst, src)
		return Inst{Op: CMOVCC, Width: 4, Cond: cond, Dst: R(dst), Src: src}
	case 27:
		imm := r.i32()
		a.PushI(imm)
		return Inst{Op: PUSH, Width: 4, Imm: imm, HasImm: true}
	case 28:
		cond, dst := Cond(r.byte()&15), r.rm()
		a.Setcc(cond, dst)
		return Inst{Op: SETCC, Width: 1, Cond: cond, Dst: dst}
	case 29:
		a.Cdq()
		return Inst{Op: CDQ, Width: 4}
	case 30:
		a.Nop()
		return Inst{Op: NOP, Width: 4}
	case 31:
		a.Hlt()
		return Inst{Op: HLT, Width: 4}
	case 32:
		cond := Cond(r.byte() & 15)
		a.Jcc(cond, "self")
		return rel(Inst{Op: JCC, Width: 4, Cond: cond})
	case 33:
		a.Jmp("self")
		return rel(Inst{Op: JMP, Width: 4})
	case 34:
		a.Call("self")
		return rel(Inst{Op: CALL, Width: 4})
	case 35:
		src := r.reg()
		a.JmpReg(src)
		return Inst{Op: JMP, Width: 4, Src: R(src)}
	case 36:
		src := r.mem()
		a.JmpMem(src)
		return Inst{Op: JMP, Width: 4, Src: src}
	case 37:
		src := r.reg()
		a.CallReg(src)
		return Inst{Op: CALL, Width: 4, Src: R(src)}
	case 38:
		a.Ret()
		return Inst{Op: RET, Width: 4}
	case 39:
		n := uint16(r.i32())
		a.RetI(n)
		return Inst{Op: RET, Width: 4, Imm: int32(n), HasImm: true}
	case 40:
		src, k := r.rm(), r.byte()&3
		[...]func(Operand){a.Div, a.IDiv, a.Mul1, a.IMul1}[k](src)
		return Inst{Op: [...]Op{DIV, IDIV, MUL1, IMUL1}[k], Width: 4, Src: src}
	case 41:
		k := r.byte() & 1
		[...]func(){a.RepMovsd, a.RepMovsb}[k]()
		return Inst{Op: MOVS, Width: 4 - 3*k, Rep: true}
	default:
		k := r.byte() & 1
		[...]func(){a.RepStosd, a.RepStosb}[k]()
		return Inst{Op: STOS, Width: 4 - 3*k, Rep: true}
	}
}

// FuzzDecode checks, for any byte string: the decoder never panics; a
// success has Len in 1..15 and decodes identically from exactly Len
// bytes (and DecodeMem agrees with Decode on the same bytes in memory);
// and, reading the same input as an assembler script, whatever Asm
// emits decodes back to the instruction that was asked for. The seed
// corpus below runs under plain `go test`.
func FuzzDecode(f *testing.F) {
	for sel := 0; sel < 43; sel++ {
		f.Add([]byte{byte(sel), 0x05, 0x02, 0x01, 0x03, 0x81, 0x7F, 0x12, 0x34, 0x56, 0x78, 0x9A})
		f.Add([]byte{byte(sel), 0xFE, 0xFD, 0x07, 0x06, 0xF2, 0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0x80, 0x01})
	}
	f.Add([]byte{})
	f.Add([]byte{0x0F})
	f.Add([]byte{0x66, 0xF3, 0x66, 0xF3, 0x66, 0xF3, 0x66, 0xF3, 0x66, 0xF3, 0x66, 0xF3, 0x66, 0xF3, 0x66, 0x90})
	f.Add([]byte{0x81, 0x84, 0x88, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		if in, err := Decode(data); err == nil {
			if in.Len < 1 || in.Len > MaxInstLen || int(in.Len) > len(data) {
				t.Fatalf("% x: Len %d", data, in.Len)
			}
			if exact, err := Decode(data[:in.Len]); err != nil || exact != in {
				t.Fatalf("% x: from Len bytes %+v, %v; from all %+v", data, exact, err, in)
			}
			// Placed so the instruction ends on the last byte of a page
			// whose successor is unmapped.
			m := NewMemory()
			addr := uint32(0x8000) - uint32(in.Len)
			m.WriteBytes(addr, data[:in.Len])
			if got, err := DecodeMem(m, addr); err != nil || got != in {
				t.Fatalf("% x: DecodeMem %+v, %v; Decode %+v", data, got, err, in)
			}
		}

		a := NewAsm(fuzzAsmBase)
		want := emitFuzzed(a, &fuzzArgs{data})
		code, err := a.Finalize()
		if err != nil {
			t.Fatalf("assemble %+v: %v", want, err)
		}
		got, err := Decode(code)
		if err != nil || int(got.Len) != len(code) {
			t.Fatalf("asm % x (want %+v): decoded %+v, %v", code, want, got, err)
		}
		checkInst(t, got, want, "assembled")
	})
}

// TestDecodeMemWindow covers the three ways DecodeMem gets its bytes:
// in place from one page, assembled across a page edge into mapped or
// unmapped memory, and wrapped around the top of the address space.
func TestDecodeMemWindow(t *testing.T) {
	// add [eax+ebx*4+0x11223344], 0x55667788: 11 bytes.
	long := []byte{0x81, 0x84, 0x98, 0x44, 0x33, 0x22, 0x11, 0x88, 0x77, 0x66, 0x55}
	want, err := Decode(long)
	if err != nil || int(want.Len) != len(long) {
		t.Fatalf("reference decode: %+v, %v", want, err)
	}
	for _, c := range []struct {
		name string
		addr uint32
	}{
		{"mid-page", 0x5100},
		{"window ends at page end", 0x6000 - MaxInstLen},
		{"window crosses into unmapped page, instruction does not", 0x6000 - 11},
		{"instruction straddles two mapped pages", 0x6000 - 5},
		{"ends at 0xFFFFFFFF", 0xFFFFFFFF - 10},
		{"wraps through 0", 0xFFFFFFFF - 4},
	} {
		m := NewMemory()
		m.WriteBytes(c.addr, long)
		got, err := DecodeMem(m, c.addr)
		if err != nil || got != want {
			t.Errorf("%s: %+v, %v; want %+v", c.name, got, err, want)
		}
	}

	// Straddling mapped → unmapped: the unmapped tail reads as zeros, so
	// the instruction decodes with its displacement and immediate cut
	// to the mapped bytes — exactly what Decode gives on the
	// zero-extended bytes.
	m := NewMemory()
	m.WriteBytes(0x6000-5, long[:5])
	padded := make([]byte, MaxInstLen)
	copy(padded, long[:5])
	wantCut, errCut := Decode(padded)
	got, err := DecodeMem(m, 0x6000-5)
	if got != wantCut || (err == nil) != (errCut == nil) {
		t.Errorf("mapped→unmapped straddle: %+v, %v; want %+v, %v", got, err, wantCut, errCut)
	}
	if m.MappedPages() != 1 {
		t.Errorf("decoding mapped the neighbour page: %d pages", m.MappedPages())
	}

	// Wholly unmapped memory is a run of zeros: add [eax], al.
	if in, err := DecodeMem(NewMemory(), 0x1234); err != nil || in.Op != ADD || in.Len != 2 {
		t.Errorf("unmapped: %+v, %v", in, err)
	}
}

// TestDecodeZeroAlloc: decoding must not allocate, from a slice or from
// memory, inside a page or across a page edge.
func TestDecodeZeroAlloc(t *testing.T) {
	code := []byte{0x81, 0x84, 0x98, 0x44, 0x33, 0x22, 0x11, 0x88, 0x77, 0x66, 0x55, 0, 0, 0, 0}
	m := NewMemory()
	m.WriteBytes(0x5100, code)
	m.WriteBytes(0x6000-5, code)
	for name, fn := range map[string]func(){
		"Decode":              func() { sinkInst, sinkErr = Decode(code) },
		"DecodeMem in page":   func() { sinkInst, sinkErr = DecodeMem(m, 0x5100) },
		"DecodeMem page edge": func() { sinkInst, sinkErr = DecodeMem(m, 0x6000-5) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 || sinkErr != nil {
			t.Errorf("%s: %v allocs/op (err %v), want 0", name, n, sinkErr)
		}
	}
}

var (
	sinkInst Inst
	sinkErr  error
)
