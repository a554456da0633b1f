package x86

import (
	"encoding/binary"
	"fmt"
)

// Asm is an IA-32 subset assembler. It emits the same encodings the
// package decoder accepts, supports forward label references, and is the
// code-generation backend of the synthetic workload generator.
type Asm struct {
	Base   uint32 // load address of the first emitted byte
	buf    []byte
	labels map[string]uint32
	fixups []fixup
	err    error
}

type fixup struct {
	pos   int // offset of the rel32 field within buf
	label string
	next  uint32 // address of the instruction end (rel is target-next)
}

// NewAsm returns an assembler whose first byte will load at base.
func NewAsm(base uint32) *Asm {
	return &Asm{Base: base, labels: make(map[string]uint32)}
}

// PC returns the address of the next byte to be emitted.
func (a *Asm) PC() uint32 { return a.Base + uint32(len(a.buf)) }

// Len returns the number of bytes emitted so far.
func (a *Asm) Len() int { return len(a.buf) }

// Err returns the first error recorded during assembly.
func (a *Asm) Err() error { return a.err }

func (a *Asm) setErr(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

// Label defines name at the current position.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.setErr("asm: duplicate label %q", name)
		return
	}
	a.labels[name] = a.PC()
}

// Finalize resolves all pending label fixups and returns the machine
// code. The assembler must not be used afterwards.
func (a *Asm) Finalize() ([]byte, error) {
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			a.setErr("asm: undefined label %q", f.label)
			break
		}
		rel := int32(target - f.next)
		binary.LittleEndian.PutUint32(a.buf[f.pos:], uint32(rel))
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.buf, nil
}

func (a *Asm) b(bytes ...byte) { a.buf = append(a.buf, bytes...) }

func (a *Asm) imm8(v int32)  { a.b(byte(v)) }
func (a *Asm) imm16(v int32) { a.b(byte(v), byte(v>>8)) }
func (a *Asm) imm32(v int32) { a.b(byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }

// modrm emits a ModRM byte (plus SIB/displacement) for reg and rm.
func (a *Asm) modrm(reg uint8, rm Operand) {
	switch rm.Kind {
	case KindReg:
		a.b(0xC0 | reg<<3 | uint8(rm.Reg))
		return
	case KindMem:
	default:
		a.setErr("asm: bad r/m operand kind %d", rm.Kind)
		return
	}

	needSIB := rm.Index != NoIndex || rm.Base == int8(ESP)
	if rm.Base == NoBase {
		if needSIB && rm.Index != NoIndex {
			// [index*scale + disp32]
			a.b(0x04|reg<<3, sibByte(rm.Scale, uint8(rm.Index), 5))
			a.imm32(rm.Disp)
			return
		}
		// absolute [disp32]
		a.b(0x05 | reg<<3)
		a.imm32(rm.Disp)
		return
	}

	var mod uint8
	switch {
	case rm.Disp == 0 && rm.Base != int8(EBP):
		mod = 0
	case rm.Disp >= -128 && rm.Disp <= 127:
		mod = 1
	default:
		mod = 2
	}
	rmBits := uint8(rm.Base)
	if needSIB {
		rmBits = 4
	}
	a.b(mod<<6 | reg<<3 | rmBits)
	if needSIB {
		idx := uint8(4)
		if rm.Index != NoIndex {
			idx = uint8(rm.Index)
		}
		a.b(sibByte(rm.Scale, idx, uint8(rm.Base)))
	}
	switch mod {
	case 1:
		a.imm8(rm.Disp)
	case 2:
		a.imm32(rm.Disp)
	}
}

func sibByte(scale, index, base uint8) byte {
	var ss uint8
	switch scale {
	case 1:
		ss = 0
	case 2:
		ss = 1
	case 4:
		ss = 2
	case 8:
		ss = 3
	default:
		ss = 0
	}
	return ss<<6 | index<<3 | base
}

// aluDigit returns an ALU mnemonic's /digit in the 0x80 group, which
// is also the index of its 0x00-0x38 opcode row.
func aluDigit(op Op) (uint8, bool) {
	for digit, row := range groups[grp1] {
		if row.op == op {
			return uint8(digit), true
		}
	}
	return 0, false
}

func (a *Asm) prefixFor(width uint8) uint8 {
	if width == 2 {
		a.b(0x66)
	}
	return width
}

// ALU emits op dst, src at the given width, where exactly one of dst and
// src may be a memory operand.
func (a *Asm) ALU(op Op, width uint8, dst, src Operand) {
	digit, ok := aluDigit(op)
	if !ok {
		a.setErr("asm: %v is not a two-operand ALU op", op)
		return
	}
	base := digit << 3
	a.prefixFor(width)
	wbit := uint8(1)
	if width == 1 {
		wbit = 0
	}
	switch {
	case src.Kind == KindReg:
		a.b(base | wbit) // rm, r
		a.modrm(uint8(src.Reg), dst)
	case dst.Kind == KindReg && src.Kind == KindMem:
		a.b(base | 2 | wbit) // r, rm
		a.modrm(uint8(dst.Reg), src)
	default:
		a.setErr("asm: bad ALU operand combination %v, %v", dst, src)
	}
}

// ALUI emits op dst, imm at the given width.
func (a *Asm) ALUI(op Op, width uint8, dst Operand, imm int32) {
	digit, ok := aluDigit(op)
	if !ok {
		a.setErr("asm: %v is not an ALU-immediate op", op)
		return
	}
	a.prefixFor(width)
	switch {
	case width == 1:
		a.b(0x80)
		a.modrm(digit, dst)
		a.imm8(imm)
	case imm >= -128 && imm <= 127:
		a.b(0x83)
		a.modrm(digit, dst)
		a.imm8(imm)
	default:
		a.b(0x81)
		a.modrm(digit, dst)
		if width == 2 {
			a.imm16(imm)
		} else {
			a.imm32(imm)
		}
	}
}

// MovRR emits mov dst, src between registers at the given width.
func (a *Asm) MovRR(width uint8, dst, src Reg) { a.Mov(width, R(dst), R(src)) }

// Mov emits mov dst, src where one side may be memory.
func (a *Asm) Mov(width uint8, dst, src Operand) {
	a.prefixFor(width)
	wbit := uint8(1)
	if width == 1 {
		wbit = 0
	}
	switch {
	case src.Kind == KindReg:
		a.b(0x88 | wbit)
		a.modrm(uint8(src.Reg), dst)
	case dst.Kind == KindReg && src.Kind == KindMem:
		a.b(0x8A | wbit)
		a.modrm(uint8(dst.Reg), src)
	default:
		a.setErr("asm: bad MOV operand combination %v, %v", dst, src)
	}
}

// MovRI emits mov r, imm at width 4 (the B8+r form).
func (a *Asm) MovRI(r Reg, imm uint32) {
	a.b(0xB8 + uint8(r))
	a.imm32(int32(imm))
}

// MovMI emits mov [mem], imm32.
func (a *Asm) MovMI(width uint8, dst Operand, imm int32) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0xC6)
		a.modrm(0, dst)
		a.imm8(imm)
		return
	}
	a.b(0xC7)
	a.modrm(0, dst)
	if width == 2 {
		a.imm16(imm)
	} else {
		a.imm32(imm)
	}
}

// Movzx emits movzx r32, rm of srcWidth 1 or 2.
func (a *Asm) Movzx(dst Reg, src Operand, srcWidth uint8) {
	if srcWidth == 1 {
		a.b(0x0F, 0xB6)
	} else {
		a.b(0x0F, 0xB7)
	}
	a.modrm(uint8(dst), src)
}

// Movsx emits movsx r32, rm of srcWidth 1 or 2.
func (a *Asm) Movsx(dst Reg, src Operand, srcWidth uint8) {
	if srcWidth == 1 {
		a.b(0x0F, 0xBE)
	} else {
		a.b(0x0F, 0xBF)
	}
	a.modrm(uint8(dst), src)
}

// Lea emits lea dst, [mem].
func (a *Asm) Lea(dst Reg, mem Operand) {
	a.b(0x8D)
	a.modrm(uint8(dst), mem)
}

// Test emits test dst, src (register source).
func (a *Asm) Test(width uint8, dst Operand, src Reg) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0x84)
	} else {
		a.b(0x85)
	}
	a.modrm(uint8(src), dst)
}

// TestI emits test dst, imm.
func (a *Asm) TestI(width uint8, dst Operand, imm int32) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0xF6)
		a.modrm(0, dst)
		a.imm8(imm)
		return
	}
	a.b(0xF7)
	a.modrm(0, dst)
	if width == 2 {
		a.imm16(imm)
	} else {
		a.imm32(imm)
	}
}

// Inc emits inc r32 (short form).
func (a *Asm) Inc(r Reg) { a.b(0x40 + uint8(r)) }

// Dec emits dec r32 (short form).
func (a *Asm) Dec(r Reg) { a.b(0x48 + uint8(r)) }

// IncM emits inc rm at the given width.
func (a *Asm) IncM(width uint8, dst Operand) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0xFE)
	} else {
		a.b(0xFF)
	}
	a.modrm(0, dst)
}

// DecM emits dec rm at the given width.
func (a *Asm) DecM(width uint8, dst Operand) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0xFE)
	} else {
		a.b(0xFF)
	}
	a.modrm(1, dst)
}

// Neg emits neg rm.
func (a *Asm) Neg(width uint8, dst Operand) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0xF6)
	} else {
		a.b(0xF7)
	}
	a.modrm(3, dst)
}

// Not emits not rm.
func (a *Asm) Not(width uint8, dst Operand) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0xF6)
	} else {
		a.b(0xF7)
	}
	a.modrm(2, dst)
}

// Imul emits imul dst, src (two-operand form).
func (a *Asm) Imul(dst Reg, src Operand) {
	a.b(0x0F, 0xAF)
	a.modrm(uint8(dst), src)
}

// ImulI emits imul dst, src, imm (three-operand form).
func (a *Asm) ImulI(dst Reg, src Operand, imm int32) {
	if imm >= -128 && imm <= 127 {
		a.b(0x6B)
		a.modrm(uint8(dst), src)
		a.imm8(imm)
	} else {
		a.b(0x69)
		a.modrm(uint8(dst), src)
		a.imm32(imm)
	}
}

// ShiftI emits op dst, count with an immediate count.
func (a *Asm) ShiftI(op Op, width uint8, dst Operand, count uint8) {
	digit := shiftDigit(op, a)
	a.prefixFor(width)
	if count == 1 {
		if width == 1 {
			a.b(0xD0)
		} else {
			a.b(0xD1)
		}
		a.modrm(digit, dst)
		return
	}
	if width == 1 {
		a.b(0xC0)
	} else {
		a.b(0xC1)
	}
	a.modrm(digit, dst)
	a.imm8(int32(count))
}

// ShiftCL emits op dst, cl.
func (a *Asm) ShiftCL(op Op, width uint8, dst Operand) {
	digit := shiftDigit(op, a)
	a.prefixFor(width)
	if width == 1 {
		a.b(0xD2)
	} else {
		a.b(0xD3)
	}
	a.modrm(digit, dst)
}

func shiftDigit(op Op, a *Asm) uint8 {
	switch op {
	case ROL:
		return 0
	case ROR:
		return 1
	case SHL:
		return 4
	case SHR:
		return 5
	case SAR:
		return 7
	}
	a.setErr("asm: %v is not a shift", op)
	return 0
}

// Xchg emits xchg rm, r.
func (a *Asm) Xchg(width uint8, dst Operand, src Reg) {
	a.prefixFor(width)
	if width == 1 {
		a.b(0x86)
	} else {
		a.b(0x87)
	}
	a.modrm(uint8(src), dst)
}

// Cmov emits cmovcc r32, rm32.
func (a *Asm) Cmov(cond Cond, dst Reg, src Operand) {
	a.b(0x0F, 0x40+uint8(cond))
	a.modrm(uint8(dst), src)
}

// Push emits push r32.
func (a *Asm) Push(r Reg) { a.b(0x50 + uint8(r)) }

// PushI emits push imm.
func (a *Asm) PushI(imm int32) {
	if imm >= -128 && imm <= 127 {
		a.b(0x6A)
		a.imm8(imm)
	} else {
		a.b(0x68)
		a.imm32(imm)
	}
}

// Pop emits pop r32.
func (a *Asm) Pop(r Reg) { a.b(0x58 + uint8(r)) }

// Setcc emits setcc rm8.
func (a *Asm) Setcc(cond Cond, dst Operand) {
	a.b(0x0F, 0x90+uint8(cond))
	a.modrm(0, dst)
}

// Cdq emits cdq.
func (a *Asm) Cdq() { a.b(0x99) }

// Nop emits nop.
func (a *Asm) Nop() { a.b(0x90) }

// Hlt emits hlt (the workload termination marker).
func (a *Asm) Hlt() { a.b(0xF4) }

// Jcc emits a conditional jump to label (rel32 form).
func (a *Asm) Jcc(cond Cond, label string) {
	a.b(0x0F, 0x80+uint8(cond))
	a.rel32(label)
}

// Jmp emits an unconditional jump to label (rel32 form).
func (a *Asm) Jmp(label string) {
	a.b(0xE9)
	a.rel32(label)
}

// JmpReg emits an indirect jump through a register.
func (a *Asm) JmpReg(r Reg) {
	a.b(0xFF)
	a.modrm(4, R(r))
}

// JmpMem emits an indirect jump through memory.
func (a *Asm) JmpMem(mem Operand) {
	a.b(0xFF)
	a.modrm(4, mem)
}

// Call emits a direct call to label.
func (a *Asm) Call(label string) {
	a.b(0xE8)
	a.rel32(label)
}

// CallReg emits an indirect call through a register.
func (a *Asm) CallReg(r Reg) {
	a.b(0xFF)
	a.modrm(2, R(r))
}

// Ret emits ret.
func (a *Asm) Ret() { a.b(0xC3) }

// RetI emits ret imm16.
func (a *Asm) RetI(n uint16) {
	a.b(0xC2)
	a.imm16(int32(n))
}

// Div emits div rm (complex class).
func (a *Asm) Div(src Operand) {
	a.b(0xF7)
	a.modrm(6, src)
}

// IDiv emits idiv rm (complex class).
func (a *Asm) IDiv(src Operand) {
	a.b(0xF7)
	a.modrm(7, src)
}

// Mul1 emits mul rm (one-operand wide multiply, complex class).
func (a *Asm) Mul1(src Operand) {
	a.b(0xF7)
	a.modrm(4, src)
}

// IMul1 emits imul rm (one-operand signed wide multiply, complex class).
func (a *Asm) IMul1(src Operand) {
	a.b(0xF7)
	a.modrm(5, src)
}

// RepMovsd emits rep movsd.
func (a *Asm) RepMovsd() { a.b(0xF3, 0xA5) }

// RepMovsb emits rep movsb.
func (a *Asm) RepMovsb() { a.b(0xF3, 0xA4) }

// RepStosd emits rep stosd.
func (a *Asm) RepStosd() { a.b(0xF3, 0xAB) }

// RepStosb emits rep stosb.
func (a *Asm) RepStosb() { a.b(0xF3, 0xAA) }

func (a *Asm) rel32(label string) {
	pos := len(a.buf)
	a.imm32(0)
	a.fixups = append(a.fixups, fixup{pos: pos, label: label, next: a.PC()})
}
