package x86

import (
	"errors"
	"fmt"
)

// MaxInstLen is the maximum encoded instruction length accepted by the
// decoder (IA-32 architectural limit).
const MaxInstLen = 15

// Decoding errors.
var (
	ErrTruncated = errors.New("x86: truncated instruction")
	ErrBadOpcode = errors.New("x86: invalid or unsupported opcode")
	ErrTooLong   = errors.New("x86: instruction exceeds 15 bytes")
)

// decoder is a cursor over an instruction byte stream.
type decoder struct {
	code []byte
	pos  int
}

func (d *decoder) u8() (uint8, error) {
	if d.pos >= len(d.code) {
		return 0, ErrTruncated
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.code) {
		return 0, ErrTruncated
	}
	b := d.code[d.pos : d.pos+2]
	d.pos += 2
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.code) {
		return 0, ErrTruncated
	}
	b := d.code[d.pos : d.pos+4]
	d.pos += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// imm reads an immediate of the given width, sign-extended to 32 bits.
func (d *decoder) imm(width uint8) (int32, error) {
	switch width {
	case 1:
		v, err := d.u8()
		return int32(int8(v)), err
	case 2:
		v, err := d.u16()
		return int32(int16(v)), err
	default:
		v, err := d.u32()
		return int32(v), err
	}
}

// modrm decodes a ModRM byte (plus SIB and displacement) into rm and
// returns the reg field.
func (d *decoder) modrm(rm *Operand) (reg uint8, err error) {
	b, err := d.u8()
	if err != nil {
		return 0, err
	}
	mod := b >> 6
	reg = (b >> 3) & 7
	rmBits := b & 7

	if mod == 3 {
		*rm = R(Reg(rmBits))
		return reg, nil
	}

	*rm = Operand{Kind: KindMem, Base: int8(rmBits), Index: NoIndex, Scale: 1}
	if rmBits == 4 { // SIB byte follows
		sib, err := d.u8()
		if err != nil {
			return 0, err
		}
		rm.Scale = 1 << (sib >> 6)
		if index := (sib >> 3) & 7; index != 4 {
			rm.Index = int8(index)
		}
		rm.Base = int8(sib & 7)
		rmBits = sib & 7
	}
	var disp uint32
	switch {
	case rmBits == 5 && mod == 0: // absolute disp32 (with or without SIB)
		rm.Base = NoBase
		disp, err = d.u32()
	case mod == 1:
		var v uint8
		v, err = d.u8()
		disp = uint32(int32(int8(v)))
	case mod == 2:
		disp, err = d.u32()
	}
	rm.Disp = int32(disp)
	return reg, err
}

// form is the operand shape an opcode decodes to.
type form uint8

const (
	fBad   form = iota // undefined or unsupported opcode
	fEsc               // 0F: the opcode is the next byte, looked up in escape
	fNone              // no ModRM, no register operand
	fRMReg             // ModRM: Dst = r/m, Src = reg
	fRegRM             // ModRM: Dst = reg, Src = r/m
	fLea               // fRegRM whose r/m must be memory
	fAcc               // Dst = eAX
	fOpReg             // Dst = the register in the opcode's low three bits
	fGrp               // ModRM: the reg field selects a row of groups[grp]
)

// immKind is what follows the operands.
type immKind uint8

const (
	immNone immKind = iota
	imm8            // sign-extended byte
	immW            // operand width (1, 2 or 4 bytes), sign-extended
	imm32           // four bytes whatever the operand width
	immU16          // RET imm16, zero-extended
	immOne          // implicit shift count of 1
	immCL           // no immediate: shift count in CL
)

// opcode is one row of the primary or the 0F-escape opcode map.
type opcode struct {
	op    Op
	form  form
	imm   immKind
	width uint8 // operand width the opcode forces (0: 4, or 2 under a 66 prefix)
	cond  bool  // condition code in the opcode's low nibble
	grp   uint8 // fGrp: row set in groups
}

// grpRow is one reg-field row of an opcode group. The r/m operand is
// the destination unless src is set; a row's own imm (grp3's TEST)
// overrides the opcode's.
type grpRow struct {
	op  Op
	src bool
	imm immKind
}

const (
	grp1      = iota // 80 81 83
	grp2             // C0 C1 D0-D3
	grp3             // F6 F7
	grp4             // FE
	grp5             // FF
	grpMovImm        // C6 C7
	grpSetcc         // 0F 90-9F
)

var groups = [...][8]grpRow{
	grp1:      {{op: ADD}, {op: OR}, {op: ADC}, {op: SBB}, {op: AND}, {op: SUB}, {op: XOR}, {op: CMP}},
	grp2:      {0: {op: ROL}, 1: {op: ROR}, 4: {op: SHL}, 5: {op: SHR}, 7: {op: SAR}},
	grp3:      {0: {op: TEST, imm: immW}, 2: {op: NOT}, 3: {op: NEG}, 4: {op: MUL1, src: true}, 5: {op: IMUL1, src: true}, 6: {op: DIV, src: true}, 7: {op: IDIV, src: true}},
	grp4:      {0: {op: INC}, 1: {op: DEC}},
	grp5:      {0: {op: INC}, 1: {op: DEC}, 2: {op: CALL, src: true}, 4: {op: JMP, src: true}, 6: {op: PUSH}},
	grpMovImm: {0: {op: MOV}},
	grpSetcc:  {0: {op: SETCC}},
}

// primary and escape are the one-byte and the 0F two-byte opcode maps.
var primary, escape = opcodeMaps()

func opcodeMaps() (pri, esc [256]opcode) {
	span := func(m *[256]opcode, lo, hi int, e opcode) {
		for b := lo; b <= hi; b++ {
			m[b] = e
		}
	}
	// ALU block: eight rows of rm,r / r,rm / acc,imm in byte and full width.
	for i, row := range groups[grp1] {
		b := i * 8
		pri[b+0] = opcode{op: row.op, form: fRMReg, width: 1}
		pri[b+1] = opcode{op: row.op, form: fRMReg}
		pri[b+2] = opcode{op: row.op, form: fRegRM, width: 1}
		pri[b+3] = opcode{op: row.op, form: fRegRM}
		pri[b+4] = opcode{op: row.op, form: fAcc, imm: immW, width: 1}
		pri[b+5] = opcode{op: row.op, form: fAcc, imm: immW}
	}
	pri[0x0F] = opcode{form: fEsc}
	span(&pri, 0x40, 0x47, opcode{op: INC, form: fOpReg})
	span(&pri, 0x48, 0x4F, opcode{op: DEC, form: fOpReg})
	span(&pri, 0x50, 0x57, opcode{op: PUSH, form: fOpReg})
	span(&pri, 0x58, 0x5F, opcode{op: POP, form: fOpReg})
	pri[0x68] = opcode{op: PUSH, form: fNone, imm: imm32}
	pri[0x69] = opcode{op: IMUL, form: fRegRM, imm: immW}
	pri[0x6A] = opcode{op: PUSH, form: fNone, imm: imm8}
	pri[0x6B] = opcode{op: IMUL, form: fRegRM, imm: imm8}
	span(&pri, 0x70, 0x7F, opcode{op: JCC, form: fNone, imm: imm8, cond: true})
	pri[0x80] = opcode{form: fGrp, grp: grp1, imm: immW, width: 1}
	pri[0x81] = opcode{form: fGrp, grp: grp1, imm: immW}
	pri[0x83] = opcode{form: fGrp, grp: grp1, imm: imm8}
	pri[0x84] = opcode{op: TEST, form: fRMReg, width: 1}
	pri[0x85] = opcode{op: TEST, form: fRMReg}
	pri[0x86] = opcode{op: XCHG, form: fRMReg, width: 1}
	pri[0x87] = opcode{op: XCHG, form: fRMReg}
	pri[0x88] = opcode{op: MOV, form: fRMReg, width: 1}
	pri[0x89] = opcode{op: MOV, form: fRMReg}
	pri[0x8A] = opcode{op: MOV, form: fRegRM, width: 1}
	pri[0x8B] = opcode{op: MOV, form: fRegRM}
	pri[0x8D] = opcode{op: LEA, form: fLea}
	pri[0x90] = opcode{op: NOP, form: fNone}
	pri[0x99] = opcode{op: CDQ, form: fNone}
	pri[0xA4] = opcode{op: MOVS, form: fNone, width: 1}
	pri[0xA5] = opcode{op: MOVS, form: fNone}
	pri[0xAA] = opcode{op: STOS, form: fNone, width: 1}
	pri[0xAB] = opcode{op: STOS, form: fNone}
	span(&pri, 0xB0, 0xB7, opcode{op: MOV, form: fOpReg, imm: immW, width: 1})
	span(&pri, 0xB8, 0xBF, opcode{op: MOV, form: fOpReg, imm: immW})
	pri[0xC0] = opcode{form: fGrp, grp: grp2, imm: imm8, width: 1}
	pri[0xC1] = opcode{form: fGrp, grp: grp2, imm: imm8}
	pri[0xC2] = opcode{op: RET, form: fNone, imm: immU16}
	pri[0xC3] = opcode{op: RET, form: fNone}
	pri[0xC6] = opcode{form: fGrp, grp: grpMovImm, imm: immW, width: 1}
	pri[0xC7] = opcode{form: fGrp, grp: grpMovImm, imm: immW}
	pri[0xD0] = opcode{form: fGrp, grp: grp2, imm: immOne, width: 1}
	pri[0xD1] = opcode{form: fGrp, grp: grp2, imm: immOne}
	pri[0xD2] = opcode{form: fGrp, grp: grp2, imm: immCL, width: 1}
	pri[0xD3] = opcode{form: fGrp, grp: grp2, imm: immCL}
	pri[0xE8] = opcode{op: CALL, form: fNone, imm: imm32}
	pri[0xE9] = opcode{op: JMP, form: fNone, imm: imm32}
	pri[0xEB] = opcode{op: JMP, form: fNone, imm: imm8}
	pri[0xF4] = opcode{op: HLT, form: fNone}
	pri[0xF6] = opcode{form: fGrp, grp: grp3, width: 1}
	pri[0xF7] = opcode{form: fGrp, grp: grp3}
	pri[0xFE] = opcode{form: fGrp, grp: grp4, width: 1}
	pri[0xFF] = opcode{form: fGrp, grp: grp5}

	span(&esc, 0x40, 0x4F, opcode{op: CMOVCC, form: fRegRM, cond: true})
	span(&esc, 0x80, 0x8F, opcode{op: JCC, form: fNone, imm: imm32, cond: true})
	span(&esc, 0x90, 0x9F, opcode{form: fGrp, grp: grpSetcc, width: 1, cond: true})
	esc[0xAF] = opcode{op: IMUL, form: fRegRM}
	// The forced width of the extending moves is the source's; the
	// destination is always 32-bit.
	esc[0xB6] = opcode{op: MOVZX, form: fRegRM, width: 1}
	esc[0xB7] = opcode{op: MOVZX, form: fRegRM, width: 2}
	esc[0xBE] = opcode{op: MOVSX, form: fRegRM, width: 1}
	esc[0xBF] = opcode{op: MOVSX, form: fRegRM, width: 2}
	return pri, esc
}

// Decode decodes a single instruction from code. On success the returned
// instruction's Len field gives the number of bytes consumed.
func Decode(code []byte) (in Inst, err error) {
	err = decode(&in, code)
	return in, err
}

// decode is Decode into the caller's instruction, which must be zero.
func decode(in *Inst, code []byte) (err error) {
	d := decoder{code: code}
	in.Width = 4

	// Prefixes.
	var b uint8
	for {
		if b, err = d.u8(); err != nil {
			return err
		}
		if b == 0x66 {
			in.Width = 2
		} else if b == 0xF3 {
			in.Rep = true
		} else {
			break
		}
	}

	e := &primary[b]
	if e.form == fEsc {
		if b, err = d.u8(); err != nil {
			return err
		}
		if e = &escape[b]; e.form == fBad {
			return fmt.Errorf("%w: 0x0f 0x%02x", ErrBadOpcode, b)
		}
	} else if e.form == fBad {
		return fmt.Errorf("%w: 0x%02x", ErrBadOpcode, b)
	}
	in.Op = e.op
	if e.width != 0 {
		in.Width = e.width
	}
	if e.cond {
		in.Cond = Cond(b & 0xF)
	}

	imm := e.imm
	switch e.form {
	case fRMReg:
		var reg uint8
		reg, err = d.modrm(&in.Dst)
		in.Src = R(Reg(reg))
	case fRegRM, fLea:
		var reg uint8
		reg, err = d.modrm(&in.Src)
		in.Dst = R(Reg(reg))
		if err == nil && e.form == fLea && in.Src.Kind != KindMem {
			err = ErrBadOpcode
		}
	case fAcc:
		in.Dst = R(EAX)
	case fOpReg:
		in.Dst = R(Reg(b & 7))
	case fGrp:
		var rm Operand
		var reg uint8
		if reg, err = d.modrm(&rm); err != nil {
			return err
		}
		row := &groups[e.grp][reg]
		if row.op == BAD {
			return ErrBadOpcode
		}
		in.Op = row.op
		if row.src {
			in.Src = rm
		} else {
			in.Dst = rm
		}
		if row.imm != immNone {
			imm = row.imm
		}
	}
	if err != nil {
		return err
	}

	switch imm {
	case immNone:
	case immCL:
		in.Src = R(ECX)
	case immOne:
		in.Imm, in.HasImm = 1, true
	case immU16:
		var v uint16
		v, err = d.u16()
		in.Imm, in.HasImm = int32(v), true
	default:
		width := in.Width // immW
		if imm == imm8 {
			width = 1
		} else if imm == imm32 {
			width = 4
		}
		in.Imm, err = d.imm(width)
		in.HasImm = true
	}
	if err != nil {
		return err
	}
	if d.pos > MaxInstLen {
		return ErrTooLong
	}
	in.Len = uint8(d.pos)
	return nil
}

// DecodeMem decodes the instruction at addr in memory. The decoder
// reads the 15-byte window in place when it lies inside one mapped
// page; a window that crosses a page edge (or wraps the address space)
// or starts on an unmapped page is assembled through ReadBytes, which
// zero-fills what is not mapped.
func DecodeMem(m *Memory, addr uint32) (in Inst, err error) {
	if off := addr % PageSize; off <= PageSize-MaxInstLen {
		if p := m.lookup(addr); p != nil {
			err = decode(&in, p[off:off+MaxInstLen])
			return in, err
		}
	}
	var buf [MaxInstLen]byte
	m.ReadBytes(addr, buf[:])
	err = decode(&in, buf[:])
	return in, err
}

// BranchTarget returns the target address of a direct relative CTI
// located at pc. It panics when called on a non-relative instruction.
func (in *Inst) BranchTarget(pc uint32) uint32 {
	switch in.Op {
	case JCC, JMP, CALL:
		if in.Src.Kind != KindNone {
			panic("x86: BranchTarget on indirect branch")
		}
		return pc + uint32(in.Len) + uint32(in.Imm)
	}
	panic("x86: BranchTarget on non-branch " + in.Op.String())
}
