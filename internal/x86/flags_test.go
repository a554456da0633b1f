package x86

import (
	"testing"
	"testing/quick"
)

func TestFlagsAddKnown(t *testing.T) {
	cases := []struct {
		a, b uint32
		w    uint8
		want Flags
	}{
		{0, 0, 4, FlagZF | FlagPF},
		{1, 1, 4, 0}, // 2: no parity (1 bit)
		{0xFFFFFFFF, 1, 4, FlagZF | FlagPF | FlagCF | FlagAF},
		{0x7FFFFFFF, 1, 4, FlagSF | FlagOF | FlagAF | FlagPF}, // 0x80000000
		{0x80000000, 0x80000000, 4, FlagZF | FlagPF | FlagCF | FlagOF},
		{0xFF, 1, 1, FlagZF | FlagPF | FlagCF | FlagAF},
		{0x7F, 1, 1, FlagSF | FlagOF | FlagAF},
	}
	for _, c := range cases {
		got := FlagsAdd(c.a, c.b, c.w)
		if got != c.want {
			t.Errorf("FlagsAdd(%#x,%#x,w=%d) = %v, want %v", c.a, c.b, c.w, got, c.want)
		}
	}
}

func TestFlagsSubKnown(t *testing.T) {
	cases := []struct {
		a, b uint32
		w    uint8
		want Flags
	}{
		{0, 0, 4, FlagZF | FlagPF},
		{0, 1, 4, FlagSF | FlagCF | FlagAF | FlagPF}, // 0xFFFFFFFF, parity of 0xFF even
		{5, 3, 4, 0}, // 2
		{0x80000000, 1, 4, FlagOF | FlagAF | FlagPF}, // 0x7FFFFFFF
		{3, 5, 4, FlagSF | FlagCF | FlagAF},          // -2 = 0xFFFFFFFE (0xFE: odd parity)
	}
	for _, c := range cases {
		got := FlagsSub(c.a, c.b, c.w)
		if got != c.want {
			t.Errorf("FlagsSub(%#x,%#x,w=%d) = %v, want %v", c.a, c.b, c.w, got, c.want)
		}
	}
}

// Property: for any a, b the identity a-b computed via FlagsSub agrees
// with FlagsAdd of the two's complement for CF-free cases, and ZF is set
// exactly when the result is zero at the operand width.
func TestFlagsZFProperty(t *testing.T) {
	f := func(a, b uint32, wsel uint8) bool {
		w := []uint8{1, 2, 4}[wsel%3]
		mask, _ := widthMask(w)
		add := FlagsAdd(a, b, w)
		sub := FlagsSub(a, b, w)
		return add.Test(FlagZF) == ((a+b)&mask == 0) &&
			sub.Test(FlagZF) == ((a-b)&mask == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: ADC with carry=0 is ADD; SBB with borrow=0 is SUB.
func TestAdcSbbDegenerate(t *testing.T) {
	f := func(a, b uint32, wsel uint8) bool {
		w := []uint8{1, 2, 4}[wsel%3]
		return FlagsAdc(a, b, false, w) == FlagsAdd(a, b, w) &&
			FlagsSbb(a, b, false, w) == FlagsSub(a, b, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: CF after unsigned ADD means the 33-bit sum overflowed.
func TestAddCarryProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		return FlagsAdd(a, b, 4).Test(FlagCF) == (uint64(a)+uint64(b) > 0xFFFFFFFF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: OF after signed ADD means the signed result is out of range.
func TestAddOverflowProperty(t *testing.T) {
	f := func(a, b int32) bool {
		s := int64(a) + int64(b)
		return FlagsAdd(uint32(a), uint32(b), 4).Test(FlagOF) == (s > 0x7FFFFFFF || s < -0x80000000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftFlags(t *testing.T) {
	// SHL by 1 of 0x80000000 -> 0, CF=1, OF = MSB(res)^CF = 1.
	res, f := FlagsShl(0, 0x80000000, 1, 4)
	if res != 0 || !f.Test(FlagCF) || !f.Test(FlagZF) || !f.Test(FlagOF) {
		t.Errorf("SHL 0x80000000,1: res=%#x flags=%v", res, f)
	}
	// SHR by 1 of 1 -> 0, CF=1.
	res, f = FlagsShr(0, 1, 1, 4)
	if res != 0 || !f.Test(FlagCF) || !f.Test(FlagZF) {
		t.Errorf("SHR 1,1: res=%#x flags=%v", res, f)
	}
	// SAR preserves sign.
	res, _ = FlagsSar(0, 0x80000000, 4, 4)
	if res != 0xF8000000 {
		t.Errorf("SAR 0x80000000,4: res=%#x", res)
	}
	// Count 0 leaves flags untouched.
	old := FlagCF | FlagOF
	res, f = FlagsShl(old, 123, 0, 4)
	if res != 123 || f != old {
		t.Errorf("SHL count 0 changed state: res=%d flags=%v", res, f)
	}
	// 8-bit SAR.
	res, _ = FlagsSar(0, 0x80, 1, 1)
	if res != 0xC0 {
		t.Errorf("SAR8 0x80,1: res=%#x", res)
	}
}

func TestIncDecPreserveCF(t *testing.T) {
	f := FlagsInc(FlagCF, 0xFFFFFFFF, 4)
	if !f.Test(FlagCF) || !f.Test(FlagZF) {
		t.Errorf("INC 0xFFFFFFFF with CF: %v", f)
	}
	f = FlagsDec(0, 0, 4)
	if f.Test(FlagCF) || !f.Test(FlagSF) {
		t.Errorf("DEC 0 without CF: %v", f)
	}
}

func TestNegFlags(t *testing.T) {
	f := FlagsNeg(0, 4)
	if f.Test(FlagCF) || !f.Test(FlagZF) {
		t.Errorf("NEG 0: %v", f)
	}
	f = FlagsNeg(5, 4)
	if !f.Test(FlagCF) {
		t.Errorf("NEG 5 should set CF: %v", f)
	}
	f = FlagsNeg(0x80000000, 4)
	if !f.Test(FlagOF) {
		t.Errorf("NEG INT_MIN should set OF: %v", f)
	}
}

func TestImulFlags(t *testing.T) {
	res, f := FlagsImul(1000, 1000, 4)
	if res != 1000000 || f.Test(FlagCF) || f.Test(FlagOF) {
		t.Errorf("IMUL small: res=%d flags=%v", res, f)
	}
	_, f = FlagsImul(0x10000, 0x10000, 4)
	if !f.Test(FlagCF) || !f.Test(FlagOF) {
		t.Errorf("IMUL overflow should set CF/OF: %v", f)
	}
}

func TestCondHolds(t *testing.T) {
	cases := []struct {
		c    Cond
		f    Flags
		want bool
	}{
		{CondE, FlagZF, true},
		{CondNE, FlagZF, false},
		{CondB, FlagCF, true},
		{CondA, 0, true},
		{CondA, FlagCF, false},
		{CondA, FlagZF, false},
		{CondL, FlagSF, true},
		{CondL, FlagSF | FlagOF, false},
		{CondGE, FlagSF | FlagOF, true},
		{CondLE, FlagZF, true},
		{CondG, 0, true},
		{CondG, FlagZF, false},
		{CondS, FlagSF, true},
		{CondO, FlagOF, true},
		{CondP, FlagPF, true},
	}
	for _, c := range cases {
		if got := c.c.Holds(c.f); got != c.want {
			t.Errorf("Cond %v with %v = %v, want %v", c.c, c.f, got, c.want)
		}
	}
}

// Property: a condition and its negation never agree.
func TestCondNegateProperty(t *testing.T) {
	f := func(cSel uint8, fl uint32) bool {
		c := Cond(cSel % 16)
		flags := Flags(fl) & FlagsAll
		return c.Holds(flags) != c.Negate().Holds(flags)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParityTable(t *testing.T) {
	// Spot checks against the IA-32 definition.
	if parityTable[0] != FlagPF || parityTable[1] != 0 || parityTable[3] != FlagPF || parityTable[7] != 0 || parityTable[0xFF] != FlagPF {
		t.Errorf("parity table wrong: %v %v %v %v %v",
			parityTable[0], parityTable[1], parityTable[3], parityTable[7], parityTable[0xFF])
	}
}
