package x86

// Flags holds the IA-32 arithmetic status flags as a bitmask using the
// EFLAGS bit positions.
type Flags uint32

// Flag bit masks (EFLAGS positions).
const (
	FlagCF Flags = 1 << 0
	FlagPF Flags = 1 << 2
	FlagAF Flags = 1 << 4
	FlagZF Flags = 1 << 6
	FlagSF Flags = 1 << 7
	FlagOF Flags = 1 << 11

	// FlagsAll is the set of flags modelled by the subset.
	FlagsAll = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagOF
)

// Test reports whether every flag in mask is set.
func (f Flags) Test(mask Flags) bool { return f&mask == mask }

// Set returns f with the flags in mask set or cleared per v.
func (f Flags) Set(mask Flags, v bool) Flags {
	if v {
		return f | mask
	}
	return f &^ mask
}

func (f Flags) String() string {
	b := make([]byte, 0, 6)
	put := func(mask Flags, c byte) {
		if f&mask != 0 {
			b = append(b, c)
		} else {
			b = append(b, '-')
		}
	}
	put(FlagOF, 'O')
	put(FlagSF, 'S')
	put(FlagZF, 'Z')
	put(FlagAF, 'A')
	put(FlagPF, 'P')
	put(FlagCF, 'C')
	return string(b)
}

// parityTable[i] is FlagPF when byte i has an even number of set bits,
// else 0.
var parityTable [256]Flags

func init() {
	for i := 0; i < 256; i++ {
		bits := 0
		for b := i; b != 0; b >>= 1 {
			bits += b & 1
		}
		if bits%2 == 0 {
			parityTable[i] = FlagPF
		}
	}
}

// widthMask returns the value mask and sign bit for an operand width in
// bytes.
func widthMask(width uint8) (mask uint32, sign uint32) {
	switch width {
	case 1:
		return 0xFF, 0x80
	case 2:
		return 0xFFFF, 0x8000
	default:
		return 0xFFFFFFFF, 0x80000000
	}
}

// szpFlags computes SF, ZF and PF of a result at the given width,
// merging them into the non-SZP bits of old.
func szpFlags(old Flags, res uint32, width uint8) Flags {
	sh := widthShift(width)
	return old&^(FlagSF|FlagZF|FlagPF) | szpAligned(res<<sh, sh)
}

// widthShift returns how far an operand of the given width in bytes
// is shifted up to left-align it in 32 bits.
func widthShift(width uint8) uint {
	switch width {
	case 1:
		return 24
	case 2:
		return 16
	default:
		return 0
	}
}

// The ADD, SUB and logic flag rules below are written once, for
// operands left-aligned in 32 bits (shifted up by sh = widthShift):
// carry, overflow, sign and zero then fall out of the 32-bit result
// whatever the operand width, and parity and the auxiliary carry are
// read sh bits up. They are branch-free and small enough to inline, so
// the 32-bit forms (sh = 0, which the hot loop calls directly) fold to
// straight-line code.

// szpAligned computes SF, ZF and PF of a left-aligned result.
func szpAligned(res uint32, sh uint) Flags {
	f := parityTable[uint8(res>>sh)] | Flags(res>>24)&FlagSF
	if res == 0 {
		f |= FlagZF
	}
	return f
}

// addFlags is the ADD rule: the carry is bit 32 of the 64-bit sum,
// overflow is both operands' signs differing from the result's.
func addFlags(a, b uint32, sh uint) Flags {
	res := a + b
	return szpAligned(res, sh) |
		Flags(uint32((uint64(a)+uint64(b))>>32)|(a^res)&(b^res)>>31<<11|(a^b^res)>>sh&uint32(FlagAF))
}

// subFlags is the SUB rule: the borrow is the sign of the 64-bit
// difference, overflow is the operands' signs differing and the
// result's differing from a's.
func subFlags(a, b uint32, sh uint) Flags {
	res := a - b
	return szpAligned(res, sh) |
		Flags(uint32((uint64(a)-uint64(b))>>63)|(a^b)&(a^res)>>31<<11|(a^b^res)>>sh&uint32(FlagAF))
}

// FlagsAdd32 computes the flags after the 32-bit a + b.
func FlagsAdd32(a, b uint32) Flags { return addFlags(a, b, 0) }

// FlagsAdd computes the flags after a + b at the given width.
func FlagsAdd(a, b uint32, width uint8) Flags {
	sh := widthShift(width)
	return addFlags(a<<sh, b<<sh, sh)
}

// FlagsAdc computes the flags after a + b + carry at the given width.
func FlagsAdc(a, b uint32, carry bool, width uint8) Flags {
	mask, sign := widthMask(width)
	a &= mask
	b &= mask
	c := uint32(0)
	if carry {
		c = 1
	}
	wide := uint64(a) + uint64(b) + uint64(c)
	res := uint32(wide) & mask
	f := szpFlags(0, res, width)
	if wide > uint64(mask) {
		f |= FlagCF
	}
	if (a^res)&(b^res)&sign != 0 {
		f |= FlagOF
	}
	if (a^b^res)&0x10 != 0 {
		f |= FlagAF
	}
	return f
}

// FlagsSub32 computes the flags after the 32-bit a - b (also CMP).
func FlagsSub32(a, b uint32) Flags { return subFlags(a, b, 0) }

// FlagsSub computes the flags after a - b at the given width (also used
// by CMP).
func FlagsSub(a, b uint32, width uint8) Flags {
	sh := widthShift(width)
	return subFlags(a<<sh, b<<sh, sh)
}

// FlagsSbb computes the flags after a - b - borrow at the given width.
func FlagsSbb(a, b uint32, borrow bool, width uint8) Flags {
	mask, sign := widthMask(width)
	a &= mask
	b &= mask
	c := uint32(0)
	if borrow {
		c = 1
	}
	res := (a - b - c) & mask
	f := szpFlags(0, res, width)
	if uint64(a) < uint64(b)+uint64(c) {
		f |= FlagCF
	}
	if (a^b)&(a^res)&sign != 0 {
		f |= FlagOF
	}
	if (a^b^res)&0x10 != 0 {
		f |= FlagAF
	}
	return f
}

// FlagsLogic32 computes the flags after a 32-bit bitwise operation
// producing res (also TEST).
func FlagsLogic32(res uint32) Flags { return szpAligned(res, 0) }

// FlagsLogic computes the flags after a bitwise operation producing res
// at the given width (CF = OF = AF = 0 per IA-32; AF is architecturally
// undefined, we clear it).
func FlagsLogic(res uint32, width uint8) Flags {
	sh := widthShift(width)
	return szpAligned(res<<sh, sh)
}

// FlagsInc32 computes the flags after the 32-bit res = a+1; CF is
// preserved from old.
func FlagsInc32(old Flags, a uint32) Flags {
	return (addFlags(a, 1, 0) &^ FlagCF) | (old & FlagCF)
}

// FlagsInc computes the flags after res = a+1; CF is preserved from old.
func FlagsInc(old Flags, a uint32, width uint8) Flags {
	f := FlagsAdd(a, 1, width)
	return (f &^ FlagCF) | (old & FlagCF)
}

// FlagsDec32 computes the flags after the 32-bit res = a-1; CF is
// preserved from old.
func FlagsDec32(old Flags, a uint32) Flags {
	return (subFlags(a, 1, 0) &^ FlagCF) | (old & FlagCF)
}

// FlagsDec computes the flags after res = a-1; CF is preserved from old.
func FlagsDec(old Flags, a uint32, width uint8) Flags {
	f := FlagsSub(a, 1, width)
	return (f &^ FlagCF) | (old & FlagCF)
}

// FlagsNeg computes the flags after res = -a.
func FlagsNeg(a uint32, width uint8) Flags {
	f := FlagsSub(0, a, width)
	return f
}

// FlagsShl computes result and flags for a logical left shift. A zero
// masked count leaves value and flags unchanged (old is returned).
func FlagsShl(old Flags, a uint32, count uint8, width uint8) (uint32, Flags) {
	mask, sign := widthMask(width)
	c := uint32(count) & 31
	if c == 0 {
		return a & mask, old
	}
	a &= mask
	res := (a << c) & mask
	f := szpFlags(0, res, width)
	// CF = last bit shifted out.
	if c <= uint32(width)*8 && (a>>(uint32(width)*8-c))&1 != 0 {
		f |= FlagCF
	}
	// OF defined only for count 1: MSB(result) XOR CF.
	if c == 1 && ((res&sign != 0) != (f&FlagCF != 0)) {
		f |= FlagOF
	}
	return res, f
}

// FlagsShr computes result and flags for a logical right shift.
func FlagsShr(old Flags, a uint32, count uint8, width uint8) (uint32, Flags) {
	mask, sign := widthMask(width)
	c := uint32(count) & 31
	if c == 0 {
		return a & mask, old
	}
	a &= mask
	res := a >> c
	f := szpFlags(0, res, width)
	if c <= 32 && (a>>(c-1))&1 != 0 {
		f |= FlagCF
	}
	// OF defined only for count 1: MSB of original operand.
	if c == 1 && a&sign != 0 {
		f |= FlagOF
	}
	return res, f
}

// FlagsSar computes result and flags for an arithmetic right shift.
func FlagsSar(old Flags, a uint32, count uint8, width uint8) (uint32, Flags) {
	mask, sign := widthMask(width)
	c := uint32(count) & 31
	if c == 0 {
		return a & mask, old
	}
	a &= mask
	// Sign-extend a to 32 bits at this width before shifting.
	sa := int32(a)
	switch width {
	case 1:
		sa = int32(int8(a))
	case 2:
		sa = int32(int16(a))
	}
	res := uint32(sa>>c) & mask
	f := szpFlags(0, res, width)
	if (uint32(sa)>>(c-1))&1 != 0 {
		f |= FlagCF
	}
	// OF = 0 for SAR with count 1 (and we leave it clear for others).
	_ = sign
	return res, f
}

// FlagsImul computes the flags after a signed multiply truncated to the
// given width: CF = OF = set when the full product does not fit. SF, ZF
// and PF are architecturally undefined after IMUL; we define them from
// the truncated result for determinism.
func FlagsImul(a, b int32, width uint8) (uint32, Flags) {
	mask, _ := widthMask(width)
	switch width {
	case 1:
		a, b = int32(int8(a)), int32(int8(b))
	case 2:
		a, b = int32(int16(a)), int32(int16(b))
	}
	full := int64(a) * int64(b)
	res := uint32(full) & mask
	f := szpFlags(0, res, width)
	var fits bool
	switch width {
	case 1:
		fits = full == int64(int8(full))
	case 2:
		fits = full == int64(int16(full))
	default:
		fits = full == int64(int32(full))
	}
	if !fits {
		f |= FlagCF | FlagOF
	}
	return res, f
}

// FlagsRol computes result and flags for a rotate-left. A zero masked
// count leaves value and flags unchanged; the rotation count is taken
// modulo the operand width. CF receives the bit that wrapped around
// (the LSB of the result); OF is defined only for count 1.
func FlagsRol(old Flags, a uint32, count uint8, width uint8) (uint32, Flags) {
	mask, sign := widthMask(width)
	c := uint32(count) & 31
	if c == 0 {
		return a & mask, old
	}
	bits := uint32(width) * 8
	r := c % bits
	a &= mask
	res := ((a << r) | (a >> (bits - r))) & mask
	if r == 0 {
		res = a
	}
	f := old &^ (FlagCF | FlagOF)
	if res&1 != 0 {
		f |= FlagCF
	}
	if c == 1 && ((res&sign != 0) != (f&FlagCF != 0)) {
		f |= FlagOF
	}
	return res, f
}

// FlagsRor computes result and flags for a rotate-right. CF receives the
// bit that wrapped around (the MSB of the result); OF is defined only
// for count 1 (XOR of the two most significant result bits).
func FlagsRor(old Flags, a uint32, count uint8, width uint8) (uint32, Flags) {
	mask, sign := widthMask(width)
	c := uint32(count) & 31
	if c == 0 {
		return a & mask, old
	}
	bits := uint32(width) * 8
	r := c % bits
	a &= mask
	res := ((a >> r) | (a << (bits - r))) & mask
	if r == 0 {
		res = a
	}
	f := old &^ (FlagCF | FlagOF)
	if res&sign != 0 {
		f |= FlagCF
	}
	msb := res & sign
	msb2 := res & (sign >> 1)
	if c == 1 && ((msb != 0) != (msb2 != 0)) {
		f |= FlagOF
	}
	return res, f
}
