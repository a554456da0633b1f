package x86

import (
	"math/rand"
	"testing"
)

// The reference arm: the ADD and SUB rules as they were written before
// the left-aligned forms (mask, compare, branch per flag), kept here so
// the rewritten rules and their 32-bit entry points are held to the old
// answers and not to each other.

func refSZP(res uint32, width uint8) Flags {
	mask, sign := widthMask(width)
	res &= mask
	var f Flags
	if res == 0 {
		f |= FlagZF
	}
	if res&sign != 0 {
		f |= FlagSF
	}
	return f | parityTable[res&0xFF]
}

func refAdd(a, b uint32, width uint8) Flags {
	mask, sign := widthMask(width)
	a &= mask
	b &= mask
	res := (a + b) & mask
	f := refSZP(res, width)
	if res < a {
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

func refSub(a, b uint32, width uint8) Flags {
	mask, sign := widthMask(width)
	a &= mask
	b &= mask
	res := (a - b) & mask
	f := refSZP(res, width)
	if a < b {
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

// FlagOperands is the operand set the flag-rule tests and the timing
// package's opcode matrix share: every boundary of every width, then
// seeded random words.
func flagOperands() []uint32 {
	ops := []uint32{0, 1, 2, 0xF, 0x10, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF, 0x10000,
		0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF, 0xFFFFFF00, 0xFFFF0000, 0x12345678}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 60; i++ {
		ops = append(ops, rng.Uint32())
	}
	return ops
}

func checkFlagRules(t *testing.T, a, b uint32, w uint8) {
	t.Helper()
	if got, want := FlagsAdd(a, b, w), refAdd(a, b, w); got != want {
		t.Fatalf("FlagsAdd(%#x,%#x,w=%d) = %v, want %v", a, b, w, got, want)
	}
	if got, want := FlagsSub(a, b, w), refSub(a, b, w); got != want {
		t.Fatalf("FlagsSub(%#x,%#x,w=%d) = %v, want %v", a, b, w, got, want)
	}
	if got, want := FlagsLogic(a&b, w), refSZP(a&b, w); got != want {
		t.Fatalf("FlagsLogic(%#x,w=%d) = %v, want %v", a&b, w, got, want)
	}
	for _, old := range []Flags{0, FlagCF, FlagsAll} {
		keep := old & FlagCF
		if got, want := FlagsInc(old, a, w), refAdd(a, 1, w)&^FlagCF|keep; got != want {
			t.Fatalf("FlagsInc(%v,%#x,w=%d) = %v, want %v", old, a, w, got, want)
		}
		if got, want := FlagsDec(old, a, w), refSub(a, 1, w)&^FlagCF|keep; got != want {
			t.Fatalf("FlagsDec(%v,%#x,w=%d) = %v, want %v", old, a, w, got, want)
		}
	}
	if got, want := FlagsNeg(a, w), refSub(0, a, w); got != want {
		t.Fatalf("FlagsNeg(%#x,w=%d) = %v, want %v", a, w, got, want)
	}
}

// TestFlagRulesMatchReference: every width over the shared operand set
// (width 0 is what an unset MicroOp.W carries and means 32 bits), and
// the 8-bit rules exhaustively.
func TestFlagRulesMatchReference(t *testing.T) {
	ops := flagOperands()
	for _, w := range []uint8{0, 1, 2, 4} {
		for _, a := range ops {
			for _, b := range ops {
				checkFlagRules(t, a, b, w)
			}
		}
	}
	for a := uint32(0); a < 256; a++ {
		for b := uint32(0); b < 256; b++ {
			// Garbage above the operand must not reach the flags.
			checkFlagRules(t, a|0xABCDEF00, b|0x12345600, 1)
		}
	}
}

// TestFlags32MatchGeneric: the 32-bit entry points the hot loop calls
// equal the generic functions at width 4, and the reference.
func TestFlags32MatchGeneric(t *testing.T) {
	ops := flagOperands()
	for _, a := range ops {
		for _, b := range ops {
			if got := FlagsAdd32(a, b); got != FlagsAdd(a, b, 4) || got != refAdd(a, b, 4) {
				t.Fatalf("FlagsAdd32(%#x,%#x) = %v, generic %v, reference %v", a, b, got, FlagsAdd(a, b, 4), refAdd(a, b, 4))
			}
			if got := FlagsSub32(a, b); got != FlagsSub(a, b, 4) || got != refSub(a, b, 4) {
				t.Fatalf("FlagsSub32(%#x,%#x) = %v, generic %v, reference %v", a, b, got, FlagsSub(a, b, 4), refSub(a, b, 4))
			}
			if got := FlagsLogic32(a ^ b); got != FlagsLogic(a^b, 4) || got != refSZP(a^b, 4) {
				t.Fatalf("FlagsLogic32(%#x) = %v, generic %v", a^b, got, FlagsLogic(a^b, 4))
			}
		}
		for _, old := range []Flags{0, FlagCF, FlagsAll} {
			if got := FlagsInc32(old, a); got != FlagsInc(old, a, 4) {
				t.Fatalf("FlagsInc32(%v,%#x) = %v, generic %v", old, a, got, FlagsInc(old, a, 4))
			}
			if got := FlagsDec32(old, a); got != FlagsDec(old, a, 4) {
				t.Fatalf("FlagsDec32(%v,%#x) = %v, generic %v", old, a, got, FlagsDec(old, a, 4))
			}
		}
	}
}
