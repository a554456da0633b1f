// Package crack translates decoded architected (x86) instructions into
// implementation-ISA micro-ops. It is the single source of cracking
// semantics in the co-designed VM and is shared by three consumers, which
// is the paper's co-design point:
//
//   - the software basic-block translator (BBT), which pays software
//     translation cycles per instruction,
//   - the XLTx86 backend functional-unit model, which performs the same
//     cracking in a few hardware cycles (package hwassist), and
//   - the dual-mode frontend decoder model, which cracks on the fly in
//     x86-mode with no translation step at all.
//
// Because all three paths share this code, translations produced by any
// of them are semantically identical by construction; differential tests
// validate the shared semantics against the interpreter.
package crack

import (
	"fmt"

	"codesignvm/internal/fisa"
	"codesignvm/internal/x86"
)

// Kind classifies a cracked instruction for the block assembler.
type Kind uint8

// Cracked-instruction kinds.
const (
	KindNormal     Kind = iota // falls through to the next instruction
	KindComplex                // emitted as a VMM callout (Flag_cmplx class)
	KindCondBranch             // conditional branch: taken/fallthrough exits
	KindJump                   // direct unconditional jump
	KindCall                   // direct call (return address pushed)
	KindJumpInd                // indirect jump (target in TargetReg)
	KindCallInd                // indirect call (target in TargetReg)
	KindRet                    // return (target in TargetReg)
	KindHalt                   // HLT: program termination
)

func (k Kind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindComplex:
		return "complex"
	case KindCondBranch:
		return "cond-branch"
	case KindJump:
		return "jump"
	case KindCall:
		return "call"
	case KindJumpInd:
		return "jump-ind"
	case KindCallInd:
		return "call-ind"
	case KindRet:
		return "ret"
	case KindHalt:
		return "halt"
	}
	return "kind?"
}

// IsCTI reports whether the kind terminates a basic block.
func (k Kind) IsCTI() bool { return k >= KindCondBranch }

// Desc describes the control behaviour of a cracked instruction to the
// block assembler.
type Desc struct {
	Kind      Kind
	NUops     int      // micro-ops emitted for this instruction
	Bytes     int      // their encoded size (fisa.EncodedLen summed)
	Cond      x86.Cond // KindCondBranch
	Target    uint32   // static target of direct CTIs
	NextPC    uint32   // fall-through PC
	TargetReg fisa.Reg // register holding the target of indirect CTIs
}

// Temporaries used by the cracker, free for reuse at every instruction
// boundary.
const (
	tVal  = fisa.RT0 // working value
	tImm  = fisa.RT1 // materialized immediates
	tByte = fisa.RT2 // byte-register extraction
	tDisp = fisa.RT3 // large displacements
	tAddr = fisa.RT4 // effective addresses
	tTgt  = fisa.RT5 // indirect branch targets (live until block exit)
)

// emitter appends micro-ops tagged with the source PC.
type emitter struct {
	buf   []fisa.MicroOp
	pc    uint32
	n     int
	bytes int // encoded size of the n micro-ops
}

func (e *emitter) emit(u fisa.MicroOp) {
	u.X86PC = e.pc
	if u.W == 0 {
		u.W = 4
	}
	e.bytes += fisa.EncodedLen(&u)
	e.buf = append(e.buf, u)
	e.n++
}

// constInto materializes a 32-bit constant into dst.
func (e *emitter) constInto(dst fisa.Reg, v uint32) {
	sv := int32(v)
	if sv >= -32768 && sv <= 32767 {
		e.emit(fisa.MicroOp{Op: fisa.UMOVI, Dst: dst, Imm: sv})
		return
	}
	e.emit(fisa.MicroOp{Op: fisa.UMOVIU, Dst: dst, Imm: int32(v >> 16)})
	if lo := v & 0xFFFF; lo != 0 {
		e.emit(fisa.MicroOp{Op: fisa.UORILO, Dst: dst, Imm: int32(lo)})
	}
}

// addr reduces a memory operand to a (base register, small displacement)
// pair, emitting address-generation micro-ops as needed.
func (e *emitter) addr(op x86.Operand) (fisa.Reg, int32) {
	var cur fisa.Reg
	haveCur := false
	if op.Index != x86.NoIndex {
		idx := fisa.Reg(op.Index)
		if op.Scale == 1 {
			if op.Base != x86.NoBase {
				e.emit(fisa.MicroOp{Op: fisa.UADD, Dst: tAddr, Src1: fisa.Reg(op.Base), Src2: idx})
				cur, haveCur = tAddr, true
			} else {
				cur, haveCur = idx, true
			}
		} else {
			sh := int32(0)
			for s := op.Scale; s > 1; s >>= 1 {
				sh++
			}
			e.emit(fisa.MicroOp{Op: fisa.USHLI, Dst: tAddr, Src1: idx, Imm: sh})
			if op.Base != x86.NoBase {
				e.emit(fisa.MicroOp{Op: fisa.UADD, Dst: tAddr, Src1: tAddr, Src2: fisa.Reg(op.Base)})
			}
			cur, haveCur = tAddr, true
		}
	} else if op.Base != x86.NoBase {
		cur, haveCur = fisa.Reg(op.Base), true
	}

	if !haveCur {
		e.constInto(tAddr, uint32(op.Disp))
		return tAddr, 0
	}
	if op.Disp == 0 {
		return cur, 0
	}
	if fisa.FitsImm11(op.Disp) {
		return cur, op.Disp
	}
	e.constInto(tDisp, uint32(op.Disp))
	e.emit(fisa.MicroOp{Op: fisa.UADD, Dst: tAddr, Src1: cur, Src2: tDisp})
	return tAddr, 0
}

// byteSrc returns a register whose low byte holds the value of byte
// register code, emitting an extraction for the AH-class registers.
func (e *emitter) byteSrc(code x86.Reg) fisa.Reg {
	if code < 4 {
		return fisa.Reg(code)
	}
	e.emit(fisa.MicroOp{Op: fisa.UEXT8H, Dst: tByte, Src1: fisa.Reg(code - 4)})
	return tByte
}

// byteDst writes the low byte of src into byte register code.
func (e *emitter) byteDst(code x86.Reg, src fisa.Reg) {
	if code < 4 {
		e.emit(fisa.MicroOp{Op: fisa.UMOV, W: 1, Dst: fisa.Reg(code), Src1: src})
		return
	}
	e.emit(fisa.MicroOp{Op: fisa.UINS8H, Dst: fisa.Reg(code - 4), Src1: src})
}

// loadOperand loads the value of a width-w operand into a register,
// returning the register holding it (which may be the architected
// register itself for direct register reads).
func (e *emitter) loadOperand(op x86.Operand, w uint8, imm int32, hasImm bool) fisa.Reg {
	if hasImm {
		e.constInto(tImm, uint32(imm))
		return tImm
	}
	switch op.Kind {
	case x86.KindReg:
		if w == 1 {
			return e.byteSrc(op.Reg)
		}
		return fisa.Reg(op.Reg)
	case x86.KindMem:
		base, disp := e.addr(op)
		ld := fisa.ULD
		switch w {
		case 1:
			ld = fisa.ULD8Z
		case 2:
			ld = fisa.ULD16Z
		}
		e.emit(fisa.MicroOp{Op: ld, Dst: tVal, Src1: base, Imm: disp})
		return tVal
	}
	panic("crack: bad operand")
}

// aluUopFor maps an x86 two-operand ALU mnemonic to its micro-op.
func aluUopFor(op x86.Op) fisa.Op {
	switch op {
	case x86.ADD:
		return fisa.UADD
	case x86.ADC:
		return fisa.UADC
	case x86.SUB, x86.CMP:
		return fisa.USUB
	case x86.SBB:
		return fisa.USBB
	case x86.AND:
		return fisa.UAND
	case x86.OR:
		return fisa.UOR
	case x86.XOR:
		return fisa.UXOR
	}
	panic("crack: not an ALU op: " + op.String())
}

func aluImmUopFor(op x86.Op) (fisa.Op, bool) {
	switch op {
	case x86.ADD:
		return fisa.UADDI, true
	case x86.SUB:
		return fisa.USUBI, true
	case x86.AND:
		return fisa.UANDI, true
	case x86.OR:
		return fisa.UORI, true
	case x86.XOR:
		return fisa.UXORI, true
	case x86.CMP:
		return fisa.UCMPI, true
	}
	return 0, false
}

// Crack appends the micro-op translation of in (located at pc) to buf and
// returns the extended buffer plus a control descriptor. Complex-class
// instructions are emitted as a single UCALLOUT micro-op; control
// transfers emit their data-flow side effects (return-address push,
// target loads) and leave branch/exit emission to the block assembler,
// which is told the control kind via the descriptor.
func Crack(buf []fisa.MicroOp, in *x86.Inst, pc uint32) ([]fisa.MicroOp, Desc, error) {
	e := emitter{buf: buf, pc: pc}
	d := Desc{Kind: KindNormal, NextPC: pc + uint32(in.Len)}
	w := in.Width

	if in.Op.IsComplex() {
		// Wide multiplies and divides crack to microcoded assist
		// micro-ops; string operations (data-dependent iteration counts)
		// go to the VMM/interpreter callout path.
		switch in.Op {
		case x86.MUL1, x86.IMUL1:
			e.crackWideMul(in)
		case x86.DIV, x86.IDIV:
			e.crackDivide(in)
		default:
			e.emit(fisa.MicroOp{Op: fisa.UCALLOUT})
			d.Kind = KindComplex
		}
		d.NUops, d.Bytes = e.n, e.bytes
		return e.buf, d, nil
	}

	switch in.Op {
	case x86.NOP:
		e.emit(fisa.MicroOp{Op: fisa.UNOP})

	case x86.MOV:
		e.crackMov(in, w)

	case x86.MOVZX, x86.MOVSX:
		src := e.loadOperandExt(in)
		if src != fisa.Reg(in.Dst.Reg) {
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: fisa.Reg(in.Dst.Reg), Src1: src})
		}

	case x86.LEA:
		base, disp := e.addr(in.Src)
		if disp == 0 {
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: fisa.Reg(in.Dst.Reg), Src1: base})
		} else {
			e.emit(fisa.MicroOp{Op: fisa.UADDI, Dst: fisa.Reg(in.Dst.Reg), Src1: base, Imm: disp})
		}

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP:
		e.crackALU(in, w)

	case x86.TEST:
		e.crackTest(in, w)

	case x86.INC, x86.DEC:
		op := fisa.UINC
		if in.Op == x86.DEC {
			op = fisa.UDEC
		}
		e.crackUnary(in, w, op, true)

	case x86.NEG:
		e.crackUnary(in, w, fisa.UNEG, true)

	case x86.NOT:
		e.crackUnary(in, w, fisa.UNOT, false)

	case x86.IMUL:
		e.crackImul(in, w)

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		e.crackShift(in, w)

	case x86.XCHG:
		e.crackXchg(in, w)

	case x86.CMOVCC:
		if in.Src.Kind == x86.KindMem {
			// x86 always performs the load; only the write is guarded.
			base, disp := e.addr(in.Src)
			ld := fisa.ULD
			if w == 2 {
				ld = fisa.ULD16Z
			}
			e.emit(fisa.MicroOp{Op: ld, Dst: tVal, Src1: base, Imm: disp})
			e.emit(fisa.MicroOp{Op: fisa.UCMOV, W: w, Dst: fisa.Reg(in.Dst.Reg), Src1: tVal, Cond: in.Cond})
		} else {
			e.emit(fisa.MicroOp{Op: fisa.UCMOV, W: w, Dst: fisa.Reg(in.Dst.Reg), Src1: fisa.Reg(in.Src.Reg), Cond: in.Cond})
		}

	case x86.PUSH:
		var src fisa.Reg
		if in.HasImm {
			e.constInto(tImm, uint32(in.Imm))
			src = tImm
		} else {
			src = e.loadOperand(in.Dst, 4, 0, false)
		}
		e.emit(fisa.MicroOp{Op: fisa.USUBI, Dst: fisa.RESP, Src1: fisa.RESP, Imm: 4})
		e.emit(fisa.MicroOp{Op: fisa.UST, Src1: fisa.RESP, Src2: src})

	case x86.POP:
		if in.Dst.Kind == x86.KindReg && in.Dst.Reg != x86.ESP {
			e.emit(fisa.MicroOp{Op: fisa.ULD, Dst: fisa.Reg(in.Dst.Reg), Src1: fisa.RESP})
			e.emit(fisa.MicroOp{Op: fisa.UADDI, Dst: fisa.RESP, Src1: fisa.RESP, Imm: 4})
		} else {
			e.emit(fisa.MicroOp{Op: fisa.ULD, Dst: tVal, Src1: fisa.RESP})
			e.emit(fisa.MicroOp{Op: fisa.UADDI, Dst: fisa.RESP, Src1: fisa.RESP, Imm: 4})
			if in.Dst.Kind == x86.KindReg {
				e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: fisa.Reg(in.Dst.Reg), Src1: tVal})
			} else {
				base, disp := e.addr(in.Dst)
				e.emit(fisa.MicroOp{Op: fisa.UST, Src1: base, Src2: tVal, Imm: disp})
			}
		}

	case x86.SETCC:
		if in.Dst.Kind == x86.KindReg {
			if in.Dst.Reg < 4 {
				e.emit(fisa.MicroOp{Op: fisa.USETC, W: 1, Dst: fisa.Reg(in.Dst.Reg), Cond: in.Cond})
			} else {
				e.emit(fisa.MicroOp{Op: fisa.USETC, W: 1, Dst: tVal, Cond: in.Cond})
				e.emit(fisa.MicroOp{Op: fisa.UINS8H, Dst: fisa.Reg(in.Dst.Reg - 4), Src1: tVal})
			}
		} else {
			e.emit(fisa.MicroOp{Op: fisa.USETC, W: 1, Dst: tVal, Cond: in.Cond})
			base, disp := e.addr(in.Dst)
			e.emit(fisa.MicroOp{Op: fisa.UST8, Src1: base, Src2: tVal, Imm: disp})
		}

	case x86.CDQ:
		e.emit(fisa.MicroOp{Op: fisa.USARI, Dst: fisa.REDX, Src1: fisa.REAX, Imm: 31})

	case x86.JCC:
		d.Kind = KindCondBranch
		d.Cond = in.Cond
		d.Target = in.BranchTarget(pc)

	case x86.JMP:
		if in.Src.Kind == x86.KindNone {
			d.Kind = KindJump
			d.Target = in.BranchTarget(pc)
		} else {
			tgt := e.loadOperand(in.Src, 4, 0, false)
			if tgt != tTgt {
				e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tTgt, Src1: tgt})
			}
			d.Kind = KindJumpInd
			d.TargetReg = tTgt
		}

	case x86.CALL:
		if in.Src.Kind == x86.KindNone {
			d.Kind = KindCall
			d.Target = in.BranchTarget(pc)
		} else {
			tgt := e.loadOperand(in.Src, 4, 0, false)
			if tgt != tTgt {
				e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tTgt, Src1: tgt})
			}
			d.Kind = KindCallInd
			d.TargetReg = tTgt
		}
		// Push the return address.
		e.constInto(tImm, d.NextPC)
		e.emit(fisa.MicroOp{Op: fisa.USUBI, Dst: fisa.RESP, Src1: fisa.RESP, Imm: 4})
		e.emit(fisa.MicroOp{Op: fisa.UST, Src1: fisa.RESP, Src2: tImm})

	case x86.RET:
		e.emit(fisa.MicroOp{Op: fisa.ULD, Dst: tTgt, Src1: fisa.RESP})
		pop := int32(4)
		if in.HasImm {
			pop += in.Imm
		}
		e.emit(fisa.MicroOp{Op: fisa.UADDI, Dst: fisa.RESP, Src1: fisa.RESP, Imm: pop})
		d.Kind = KindRet
		d.TargetReg = tTgt

	case x86.HLT:
		d.Kind = KindHalt

	default:
		return e.buf, d, fmt.Errorf("crack: unsupported op %v", in.Op)
	}

	d.NUops, d.Bytes = e.n, e.bytes
	return e.buf, d, nil
}

// crackWideMul lowers the one-operand MUL/IMUL (EDX:EAX = EAX * src).
func (e *emitter) crackWideMul(in *x86.Inst) {
	src := e.loadOperand(in.Src, 4, 0, false)
	mulh := fisa.UMULHU
	if in.Op == x86.IMUL1 {
		mulh = fisa.UMULHS
	}
	// Low half first into a temp (EAX is an input of both halves).
	e.emit(fisa.MicroOp{Op: fisa.UMUL, Dst: tVal, Src1: fisa.REAX, Src2: src})
	e.emit(fisa.MicroOp{Op: mulh, SetF: true, Dst: fisa.REDX, Src1: fisa.REAX, Src2: src})
	e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: fisa.REAX, Src1: tVal})
}

// crackDivide lowers DIV/IDIV (EDX:EAX / src → quotient EAX, remainder
// EDX) onto the microcoded divide assists.
func (e *emitter) crackDivide(in *x86.Inst) {
	src := e.loadOperand(in.Src, 4, 0, false)
	q, r := fisa.UDIVQ, fisa.UDIVR
	if in.Op == x86.IDIV {
		q, r = fisa.UIDIVQ, fisa.UIDIVR
	}
	// Quotient and remainder both read EDX:EAX, so compute into temps
	// before writing the architected registers.
	e.emit(fisa.MicroOp{Op: q, Dst: tVal, Src1: src})
	e.emit(fisa.MicroOp{Op: r, Dst: tImm, Src1: src})
	e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: fisa.REAX, Src1: tVal})
	e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: fisa.REDX, Src1: tImm})
}

func (e *emitter) crackMov(in *x86.Inst, w uint8) {
	switch {
	case in.HasImm && in.Dst.Kind == x86.KindReg:
		if w == 4 {
			e.constInto(fisa.Reg(in.Dst.Reg), uint32(in.Imm))
		} else {
			e.constInto(tImm, uint32(in.Imm))
			if w == 1 {
				e.byteDst(in.Dst.Reg, tImm)
			} else {
				e.emit(fisa.MicroOp{Op: fisa.UMOV, W: 2, Dst: fisa.Reg(in.Dst.Reg), Src1: tImm})
			}
		}
	case in.HasImm: // mem, imm
		e.constInto(tImm, uint32(in.Imm))
		base, disp := e.addr(in.Dst)
		e.emit(fisa.MicroOp{Op: storeOpFor(w), Src1: base, Src2: tImm, Imm: disp})
	case in.Dst.Kind == x86.KindReg && in.Src.Kind == x86.KindReg:
		if w == 1 {
			src := e.byteSrc(in.Src.Reg)
			e.byteDst(in.Dst.Reg, src)
		} else {
			e.emit(fisa.MicroOp{Op: fisa.UMOV, W: w, Dst: fisa.Reg(in.Dst.Reg), Src1: fisa.Reg(in.Src.Reg)})
		}
	case in.Dst.Kind == x86.KindReg: // reg, mem
		base, disp := e.addr(in.Src)
		switch w {
		case 4:
			e.emit(fisa.MicroOp{Op: fisa.ULD, Dst: fisa.Reg(in.Dst.Reg), Src1: base, Imm: disp})
		case 2:
			e.emit(fisa.MicroOp{Op: fisa.ULD16Z, Dst: tVal, Src1: base, Imm: disp})
			e.emit(fisa.MicroOp{Op: fisa.UMOV, W: 2, Dst: fisa.Reg(in.Dst.Reg), Src1: tVal})
		case 1:
			e.emit(fisa.MicroOp{Op: fisa.ULD8Z, Dst: tVal, Src1: base, Imm: disp})
			e.byteDst(in.Dst.Reg, tVal)
		}
	default: // mem, reg
		var src fisa.Reg
		if w == 1 {
			src = e.byteSrc(in.Src.Reg)
		} else {
			src = fisa.Reg(in.Src.Reg)
		}
		base, disp := e.addr(in.Dst)
		e.emit(fisa.MicroOp{Op: storeOpFor(w), Src1: base, Src2: src, Imm: disp})
	}
}

// loadOperandExt cracks the source read of MOVZX/MOVSX, returning the
// register holding the fully extended 32-bit value.
func (e *emitter) loadOperandExt(in *x86.Inst) fisa.Reg {
	dst := fisa.Reg(in.Dst.Reg)
	sign := in.Op == x86.MOVSX
	if in.Src.Kind == x86.KindMem {
		base, disp := e.addr(in.Src)
		var op fisa.Op
		switch {
		case in.Width == 1 && sign:
			op = fisa.ULD8S
		case in.Width == 1:
			op = fisa.ULD8Z
		case sign:
			op = fisa.ULD16S
		default:
			op = fisa.ULD16Z
		}
		e.emit(fisa.MicroOp{Op: op, Dst: dst, Src1: base, Imm: disp})
		return dst
	}
	// Register source.
	var src fisa.Reg
	if in.Width == 1 {
		src = e.byteSrc(in.Src.Reg)
	} else {
		src = fisa.Reg(in.Src.Reg)
	}
	var op fisa.Op
	switch {
	case in.Width == 1 && sign:
		op = fisa.USEXT8
	case in.Width == 1:
		op = fisa.UZEXT8
	case sign:
		op = fisa.USEXT16
	default:
		op = fisa.UZEXT16
	}
	e.emit(fisa.MicroOp{Op: op, Dst: dst, Src1: src})
	return dst
}

func storeOpFor(w uint8) fisa.Op {
	switch w {
	case 1:
		return fisa.UST8
	case 2:
		return fisa.UST16
	default:
		return fisa.UST
	}
}

func (e *emitter) crackALU(in *x86.Inst, w uint8) {
	isCmp := in.Op == x86.CMP
	uop := aluUopFor(in.Op)

	// Fast path: 32-bit register destination.
	if in.Dst.Kind == x86.KindReg && w == 4 {
		dst := fisa.Reg(in.Dst.Reg)
		if in.HasImm {
			if iop, ok := aluImmUopFor(in.Op); ok && fisa.FitsImm11(in.Imm) {
				if isCmp {
					e.emit(fisa.MicroOp{Op: fisa.UCMPI, Src1: dst, Imm: in.Imm})
				} else {
					e.emit(fisa.MicroOp{Op: iop, SetF: true, Dst: dst, Src1: dst, Imm: in.Imm})
				}
				return
			}
			e.constInto(tImm, uint32(in.Imm))
			if isCmp {
				e.emit(fisa.MicroOp{Op: fisa.UCMP, Src1: dst, Src2: tImm})
			} else {
				e.emit(fisa.MicroOp{Op: uop, SetF: true, Dst: dst, Src1: dst, Src2: tImm})
			}
			return
		}
		src := e.loadOperand(in.Src, 4, 0, false)
		if isCmp {
			e.emit(fisa.MicroOp{Op: fisa.UCMP, Src1: dst, Src2: src})
		} else {
			e.emit(fisa.MicroOp{Op: uop, SetF: true, Dst: dst, Src1: dst, Src2: src})
		}
		return
	}

	// General path: sub-width or memory destination.
	var src fisa.Reg
	if in.HasImm {
		e.constInto(tImm, uint32(in.Imm))
		src = tImm
	} else {
		src = e.loadOperand(in.Src, w, 0, false)
		if src == tVal {
			// Source loaded into tVal would clash with the destination
			// load below; move it aside.
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tImm, Src1: tVal})
			src = tImm
		}
	}

	switch in.Dst.Kind {
	case x86.KindReg:
		if w == 1 {
			rd := e.byteSrc(in.Dst.Reg)
			if isCmp {
				e.emit(fisa.MicroOp{Op: fisa.UCMP, W: 1, Src1: rd, Src2: src})
				return
			}
			e.emit(fisa.MicroOp{Op: uop, W: 1, SetF: true, Dst: tVal, Src1: rd, Src2: src})
			e.byteDst(in.Dst.Reg, tVal)
			return
		}
		// w == 2
		dst := fisa.Reg(in.Dst.Reg)
		if isCmp {
			e.emit(fisa.MicroOp{Op: fisa.UCMP, W: 2, Src1: dst, Src2: src})
			return
		}
		e.emit(fisa.MicroOp{Op: uop, W: 2, SetF: true, Dst: dst, Src1: dst, Src2: src})
	case x86.KindMem:
		base, disp := e.addr(in.Dst)
		ld := fisa.ULD
		switch w {
		case 1:
			ld = fisa.ULD8Z
		case 2:
			ld = fisa.ULD16Z
		}
		e.emit(fisa.MicroOp{Op: ld, Dst: tVal, Src1: base, Imm: disp})
		if isCmp {
			e.emit(fisa.MicroOp{Op: fisa.UCMP, W: w, Src1: tVal, Src2: src})
			return
		}
		e.emit(fisa.MicroOp{Op: uop, W: w, SetF: true, Dst: tVal, Src1: tVal, Src2: src})
		e.emit(fisa.MicroOp{Op: storeOpFor(w), Src1: base, Src2: tVal, Imm: disp})
	}
}

func (e *emitter) crackTest(in *x86.Inst, w uint8) {
	a := e.loadOperand(in.Dst, w, 0, false)
	if in.HasImm {
		if w == 4 && fisa.FitsImm11(in.Imm) {
			e.emit(fisa.MicroOp{Op: fisa.UTESTI, Src1: a, Imm: in.Imm})
			return
		}
		e.constInto(tImm, uint32(in.Imm))
		e.emit(fisa.MicroOp{Op: fisa.UTEST, W: w, Src1: a, Src2: tImm})
		return
	}
	var b fisa.Reg
	if w == 1 {
		if a == tVal || a == tByte {
			// Dst used the byte-extract temp; use the immediate temp for
			// the source extract path by moving first.
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tImm, Src1: a})
			a = tImm
		}
		b = e.byteSrc(in.Src.Reg)
	} else {
		b = fisa.Reg(in.Src.Reg)
	}
	e.emit(fisa.MicroOp{Op: fisa.UTEST, W: w, Src1: a, Src2: b})
}

func (e *emitter) crackUnary(in *x86.Inst, w uint8, op fisa.Op, setf bool) {
	switch {
	case in.Dst.Kind == x86.KindReg && w == 4:
		dst := fisa.Reg(in.Dst.Reg)
		e.emit(fisa.MicroOp{Op: op, SetF: setf, Dst: dst, Src1: dst})
	case in.Dst.Kind == x86.KindReg && w == 1:
		rd := e.byteSrc(in.Dst.Reg)
		e.emit(fisa.MicroOp{Op: op, W: 1, SetF: setf, Dst: tVal, Src1: rd})
		e.byteDst(in.Dst.Reg, tVal)
	case in.Dst.Kind == x86.KindReg: // w == 2
		dst := fisa.Reg(in.Dst.Reg)
		e.emit(fisa.MicroOp{Op: op, W: 2, SetF: setf, Dst: dst, Src1: dst})
	default:
		base, disp := e.addr(in.Dst)
		ld := fisa.ULD
		switch w {
		case 1:
			ld = fisa.ULD8Z
		case 2:
			ld = fisa.ULD16Z
		}
		e.emit(fisa.MicroOp{Op: ld, Dst: tVal, Src1: base, Imm: disp})
		e.emit(fisa.MicroOp{Op: op, W: w, SetF: setf, Dst: tVal, Src1: tVal})
		e.emit(fisa.MicroOp{Op: storeOpFor(w), Src1: base, Src2: tVal, Imm: disp})
	}
}

func (e *emitter) crackImul(in *x86.Inst, w uint8) {
	dst := fisa.Reg(in.Dst.Reg)
	if in.HasImm { // three-operand: dst = src * imm
		src := e.loadOperand(in.Src, w, 0, false)
		e.constInto(tImm, uint32(in.Imm))
		e.emit(fisa.MicroOp{Op: fisa.UMUL, W: w, SetF: true, Dst: dst, Src1: src, Src2: tImm})
		return
	}
	src := e.loadOperand(in.Src, w, 0, false)
	e.emit(fisa.MicroOp{Op: fisa.UMUL, W: w, SetF: true, Dst: dst, Src1: dst, Src2: src})
}

func (e *emitter) crackShift(in *x86.Inst, w uint8) {
	var immOp, regOp fisa.Op
	switch in.Op {
	case x86.SHL:
		immOp, regOp = fisa.USHLI, fisa.USHL
	case x86.SHR:
		immOp, regOp = fisa.USHRI, fisa.USHR
	case x86.ROL:
		immOp, regOp = fisa.UROLI, fisa.UROL
	case x86.ROR:
		immOp, regOp = fisa.URORI, fisa.UROR
	default:
		immOp, regOp = fisa.USARI, fisa.USAR
	}
	// The shift works in place on val: the register itself at width 2
	// or 4, a temporary holding the byte or the loaded memory operand
	// otherwise, written back afterwards.
	sh := fisa.MicroOp{Op: regOp, W: w, SetF: true, Src2: fisa.RECX}
	if in.HasImm {
		sh = fisa.MicroOp{Op: immOp, W: w, SetF: true, Imm: in.Imm & 31}
	}
	val := tVal
	var base fisa.Reg
	var disp int32
	switch {
	case in.Dst.Kind == x86.KindReg && w != 1:
		val = fisa.Reg(in.Dst.Reg)
	case in.Dst.Kind == x86.KindReg:
		if rd := e.byteSrc(in.Dst.Reg); rd != tVal {
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tVal, Src1: rd})
		}
	default:
		base, disp = e.addr(in.Dst)
		ld := fisa.ULD
		switch w {
		case 1:
			ld = fisa.ULD8Z
		case 2:
			ld = fisa.ULD16Z
		}
		e.emit(fisa.MicroOp{Op: ld, Dst: tVal, Src1: base, Imm: disp})
	}
	sh.Dst, sh.Src1 = val, val
	e.emit(sh)
	switch {
	case in.Dst.Kind != x86.KindReg:
		e.emit(fisa.MicroOp{Op: storeOpFor(w), Src1: base, Src2: tVal, Imm: disp})
	case w == 1:
		e.byteDst(in.Dst.Reg, tVal)
	}
}

// crackXchg lowers the register/memory exchange.
func (e *emitter) crackXchg(in *x86.Inst, w uint8) {
	if in.Dst.Kind == x86.KindReg {
		if w == 1 {
			a := e.byteSrc(in.Dst.Reg)
			// Copy the first byte aside before it is overwritten.
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tVal, Src1: a})
			b := e.byteSrc(in.Src.Reg)
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tImm, Src1: b})
			e.byteDst(in.Dst.Reg, tImm)
			e.byteDst(in.Src.Reg, tVal)
			return
		}
		d, s := fisa.Reg(in.Dst.Reg), fisa.Reg(in.Src.Reg)
		e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tVal, Src1: d})
		e.emit(fisa.MicroOp{Op: fisa.UMOV, W: w, Dst: d, Src1: s})
		e.emit(fisa.MicroOp{Op: fisa.UMOV, W: w, Dst: s, Src1: tVal})
		return
	}
	// Memory form: load old value, store the register, write old value
	// into the register.
	var src fisa.Reg
	if w == 1 {
		src = e.byteSrc(in.Src.Reg)
		if src == tByte {
			e.emit(fisa.MicroOp{Op: fisa.UMOV, Dst: tImm, Src1: tByte})
			src = tImm
		}
	} else {
		src = fisa.Reg(in.Src.Reg)
	}
	base, disp := e.addr(in.Dst)
	ld := fisa.ULD
	switch w {
	case 1:
		ld = fisa.ULD8Z
	case 2:
		ld = fisa.ULD16Z
	}
	e.emit(fisa.MicroOp{Op: ld, Dst: tVal, Src1: base, Imm: disp})
	e.emit(fisa.MicroOp{Op: storeOpFor(w), Src1: base, Src2: src, Imm: disp})
	if w == 1 {
		e.byteDst(in.Src.Reg, tVal)
	} else {
		e.emit(fisa.MicroOp{Op: fisa.UMOV, W: w, Dst: fisa.Reg(in.Src.Reg), Src1: tVal})
	}
}
