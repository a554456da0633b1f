package fisa

import (
	"errors"
	"fmt"

	"codesignvm/internal/x86"
)

// Binary format of the fusible ISA.
//
// Micro-ops are 2 or 4 bytes, little-endian. The first halfword carries
// the fusible bit and a size discriminator:
//
//	16-bit: [15]=fused [14]=0 [13:10]=compact-op [9:5]=a [4:0]=b
//	32-bit: [15]=fused [14]=1 [13:8]=op [7:6]=W [5]=setf [4:0]=dst
//	        second halfword is layout-dependent:
//	          RRR:   [31:27]=src1 [26:22]=src2
//	          RRI:   [31:27]=src1 [26:16]=imm11 (signed)
//	          IMM16: [31:16]=imm16
//	          BR:    [31:16]=target (absolute micro-op index); cond in dst
//
// The compact 16-bit form covers the most common width-4 register-register
// operations with their default flag behaviour; everything else uses the
// 32-bit form. This mirrors the paper's 16b/32b fusible instruction
// formats and lets translations be measured in real code-cache bytes
// (the XLTx86 CSR reports µops_bytes per cracked instruction).

// Encoding errors.
var (
	ErrImmRange  = errors.New("fisa: immediate out of encodable range")
	ErrBadUop    = errors.New("fisa: malformed micro-op")
	ErrShortBuf  = errors.New("fisa: truncated micro-op stream")
	ErrBadFormat = errors.New("fisa: invalid encoding")
)

// layout classes.
type layout uint8

const (
	layRRR layout = iota
	layRRI
	layIMM16
	layBR
)

func layoutOf(op Op) layout { return opTable[op].layout }

// compactOps maps the 16-bit form's opcode field back to the micro-op
// (the inverse of opTable's compact column).
var compactOps = func() (ops [16]Op) {
	for op := range opTable {
		if c := opTable[op].compact; c != 0 {
			ops[c-1] = Op(op)
		}
	}
	return ops
}()

// FitsImm11 reports whether v is encodable as the signed 11-bit immediate
// of the RRI layout (loads, stores and immediate ALU micro-ops).
func FitsImm11(v int32) bool { return v >= -1024 && v <= 1023 }

// EncodedLen returns the encoded size of the micro-op in bytes (2 or 4).
func EncodedLen(u *MicroOp) int {
	if compactable(u) {
		return 2
	}
	return 4
}

// compactable reports whether u fits the 16-bit form: a compact opcode
// at width 4 with no immediate, its implied flag behaviour, and — for
// the two-source ALU ops, which are two-address there — Dst == Src1.
func compactable(u *MicroOp) bool {
	d := &opTable[u.Op]
	if d.compact == 0 || u.W != 4 || u.Imm != 0 || u.SetF != (d.bits&opCompactSetF != 0) {
		return false
	}
	return d.bits&opTwoAddr == 0 || u.Dst == u.Src1
}

func wBits(w uint8) (uint32, error) {
	switch w {
	case 4, 0:
		return 0, nil
	case 1:
		return 1, nil
	case 2:
		return 2, nil
	}
	return 0, fmt.Errorf("%w: width %d", ErrBadUop, w)
}

func wFromBits(b uint32) uint8 {
	switch b {
	case 1:
		return 1
	case 2:
		return 2
	default:
		return 4
	}
}

// Encode appends the binary encoding of u to buf and returns it.
func Encode(buf []byte, u *MicroOp) ([]byte, error) {
	if compactable(u) {
		d := &opTable[u.Op]
		var a, b Reg
		switch {
		case u.Op == UST:
			a, b = u.Src2, u.Src1
		case u.Op == UCMP || u.Op == UTEST:
			a, b = u.Src1, u.Src2
		case d.bits&opTwoAddr != 0:
			a, b = u.Dst, u.Src2 // dst == src1
		default:
			a, b = u.Dst, u.Src1
		}
		hw := uint16(d.compact-1)<<10 | uint16(a&31)<<5 | uint16(b&31)
		if u.Fused {
			hw |= 1 << 15
		}
		return append(buf, byte(hw), byte(hw>>8)), nil
	}

	var word uint32 = 1 << 14 // size bit
	if u.Fused {
		word |= 1 << 15
	}
	word |= uint32(u.Op&0x3F) << 8
	wb, err := wBits(u.W)
	if err != nil {
		return buf, err
	}
	word |= wb << 6
	if u.SetF {
		word |= 1 << 5
	}
	switch layoutOf(u.Op) {
	case layRRR:
		word |= uint32(u.Dst & 31)
		if u.Op == USETC {
			word |= uint32(u.Cond&0xF) << 27
		} else if u.Op == UCMOV {
			word |= uint32(u.Src1&31) << 27
			word |= uint32(u.Cond&0xF) << 22
		} else {
			word |= uint32(u.Src1&31) << 27
			word |= uint32(u.Src2&31) << 22
		}
	case layRRI:
		if !FitsImm11(u.Imm) {
			return buf, fmt.Errorf("%w: %d in %v", ErrImmRange, u.Imm, u)
		}
		var rDst Reg
		if u.IsStore() {
			rDst = u.Src2 // data register in the dst slot
		} else {
			rDst = u.Dst
		}
		word |= uint32(rDst & 31)
		word |= uint32(u.Src1&31) << 27
		word |= (uint32(u.Imm) & 0x7FF) << 16
	case layIMM16:
		if u.Imm < -32768 || u.Imm > 0xFFFF {
			return buf, fmt.Errorf("%w: %d in %v", ErrImmRange, u.Imm, u)
		}
		word |= uint32(u.Dst & 31)
		word |= (uint32(u.Imm) & 0xFFFF) << 16
	case layBR:
		if u.Imm < 0 || u.Imm > 0xFFFF {
			return buf, fmt.Errorf("%w: branch target %d", ErrImmRange, u.Imm)
		}
		word |= uint32(u.Cond & 0xF)
		word |= uint32(u.Imm) << 16
	}
	return append(buf, byte(word), byte(word>>8), byte(word>>16), byte(word>>24)), nil
}

// decodeTo decodes one micro-op from buf into u, which DecodeAll points
// at its slice's next element, and returns the number of bytes
// consumed; translation metadata fields are left zero. Returned by
// value, the 20-byte record is copied through the stack by overlapping
// 8- and 16-byte loads that cannot be forwarded from the byte stores
// that built it; that made the snapshot decoder 1.6× slower than with
// the 24-byte record the layout replaced.
func decodeTo(u *MicroOp, buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, ErrShortBuf
	}
	hw := uint16(buf[0]) | uint16(buf[1])<<8
	if hw&(1<<14) == 0 {
		// 16-bit compact form.
		op := compactOps[(hw>>10)&0xF]
		*u = MicroOp{Op: op, SetF: opTable[op].bits&opCompactSetF != 0, W: 4, Fused: hw&(1<<15) != 0}
		a := Reg((hw >> 5) & 31)
		b := Reg(hw & 31)
		switch op {
		case UNOP:
		case UST:
			u.Src2, u.Src1 = a, b
		case UCMP, UTEST:
			u.Src1, u.Src2 = a, b
		case UMOV, UNEG, UNOT, ULD:
			u.Dst, u.Src1 = a, b
		default: // two-address RRR
			u.Dst, u.Src1, u.Src2 = a, a, b
		}
		return 2, nil
	}
	if len(buf) < 4 {
		return 0, ErrShortBuf
	}
	word := uint32(hw) | uint32(buf[2])<<16 | uint32(buf[3])<<24
	*u = MicroOp{
		Op:    Op((word >> 8) & 0x3F),
		Fused: word&(1<<15) != 0,
		W:     wFromBits((word >> 6) & 3),
		SetF:  word&(1<<5) != 0,
	}
	if int(u.Op) >= int(numUops) {
		return 0, ErrBadFormat
	}
	switch layoutOf(u.Op) {
	case layRRR:
		u.Dst = Reg(word & 31)
		if u.Op == USETC {
			u.Cond = x86.Cond((word >> 27) & 0xF)
		} else if u.Op == UCMOV {
			u.Src1 = Reg((word >> 27) & 31)
			u.Cond = x86.Cond((word >> 22) & 0xF)
		} else {
			u.Src1 = Reg((word >> 27) & 31)
			u.Src2 = Reg((word >> 22) & 31)
		}
	case layRRI:
		r := Reg(word & 31)
		u.Src1 = Reg((word >> 27) & 31)
		imm := (word >> 16) & 0x7FF
		if imm&0x400 != 0 {
			imm |= 0xFFFFF800
		}
		u.Imm = int32(imm)
		if u.IsStore() {
			u.Src2 = r
		} else {
			u.Dst = r
		}
	case layIMM16:
		u.Dst = Reg(word & 31)
		imm := (word >> 16) & 0xFFFF
		if u.Op == UMOVI && imm&0x8000 != 0 {
			imm |= 0xFFFF0000
		}
		u.Imm = int32(imm)
	case layBR:
		u.Cond = x86.Cond(word & 0xF)
		u.Imm = int32((word >> 16) & 0xFFFF)
	}
	return 4, nil
}

// EncodeAll encodes a translation's micro-ops, returning the binary image
// and the byte offset of each micro-op (used for I-fetch modelling).
func EncodeAll(uops []MicroOp) (code []byte, offsets []int, err error) {
	offsets = make([]int, len(uops))
	for i := range uops {
		offsets[i] = len(code)
		code, err = Encode(code, &uops[i])
		if err != nil {
			return nil, nil, fmt.Errorf("µop %d: %w", i, err)
		}
	}
	return code, offsets, nil
}

// DecodeAll decodes a full micro-op stream, appending the micro-ops to
// dst (which may be nil) and returning the extended slice.
func DecodeAll(dst []MicroOp, code []byte) ([]MicroOp, error) {
	for pos := 0; pos < len(code); {
		dst = append(dst, MicroOp{})
		n, err := decodeTo(&dst[len(dst)-1], code[pos:])
		if err != nil {
			return nil, fmt.Errorf("offset %d: %w", pos, err)
		}
		pos += n
	}
	return dst, nil
}
