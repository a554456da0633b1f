package fisa

import (
	"math/rand"
	"testing"

	"codesignvm/internal/x86"
)

// randUop produces a random, encodable micro-op.
func randUop(rng *rand.Rand) MicroOp {
	ops := []Op{
		UNOP, UMOVI, UMOVIU, UORILO, UMOV, UADD, USUB, UADC, USBB, UAND,
		UOR, UXOR, USHL, USHR, USAR, UMUL, UNEG, UNOT,
		UADDI, USUBI, UANDI, UORI, UXORI, USHLI, USHRI, USARI,
		UEXT8H, UINS8H, USEXT8, USEXT16, UZEXT8, UZEXT16,
		ULD, ULD8Z, ULD8S, ULD16Z, ULD16S, UST, UST8, UST16,
		UCMP, UCMPI, UTEST, UTESTI, USETC, UBR, UJMP, UEXIT, UCALLOUT,
	}
	u := MicroOp{
		Op:    ops[rng.Intn(len(ops))],
		Fused: rng.Intn(2) == 0,
		Dst:   Reg(rng.Intn(NumRegs)),
		Src1:  Reg(rng.Intn(NumRegs)),
		Src2:  Reg(rng.Intn(NumRegs)),
		W:     []uint8{1, 2, 4}[rng.Intn(3)],
		SetF:  rng.Intn(2) == 0,
		Cond:  x86.Cond(rng.Intn(16)),
	}
	switch layoutOf(u.Op) {
	case layRRI:
		u.Imm = int32(rng.Intn(2048) - 1024)
	case layIMM16:
		if u.Op == UMOVI {
			u.Imm = int32(rng.Intn(65536) - 32768)
		} else {
			u.Imm = int32(rng.Intn(65536))
		}
	case layBR:
		u.Imm = int32(rng.Intn(65536))
	}
	return u
}

// normalize clears fields that are not represented in the encoding for
// the micro-op's layout so round-trip comparison is meaningful.
func normalize(u MicroOp) MicroOp {
	u.X86PC, u.Boundary = 0, 0
	switch u.Op {
	case UNOP:
		return MicroOp{Op: UNOP, W: 4, Fused: u.Fused}
	case UMOVI, UMOVIU, UORILO:
		u.Src1, u.Src2, u.Cond, u.W, u.SetF = 0, 0, 0, 4, false
	case UBR, UJMP:
		u.Dst, u.Src1, u.Src2, u.W, u.SetF = 0, 0, 0, 4, false
		if u.Op == UJMP {
			u.Cond = 0
		}
	case USETC:
		u.Src1, u.Src2, u.Imm = 0, 0, 0
	case UEXIT, UCALLOUT:
		u.Dst, u.Src2, u.Cond, u.W, u.SetF = 0, 0, 0, 4, false
	case UST, UST8, UST16:
		u.Dst, u.Cond = 0, 0
	case UCMP, UCMPI, UTEST, UTESTI:
		u.Dst, u.Cond, u.SetF = 0, 0, false
		if u.Op == UCMPI || u.Op == UTESTI {
			u.Src2 = 0
		}
	default:
		u.Cond = 0
		if layoutOf(u.Op) == layRRI {
			u.Src2 = 0
		} else {
			u.Imm = 0
		}
		switch u.Op {
		case UMOV, UNEG, UNOT:
			u.Src2 = 0
		case UEXT8H, UINS8H, USEXT8, USEXT16, UZEXT8, UZEXT16:
			u.Src2, u.W, u.SetF = 0, 4, false
		}
	}
	return u
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		u := normalize(randUop(rng))
		enc, err := Encode(nil, &u)
		if err != nil {
			t.Fatalf("iter %d: encode %v: %v", i, u, err)
		}
		if len(enc) != EncodedLen(&u) {
			t.Fatalf("iter %d: EncodedLen=%d, actual=%d for %v", i, EncodedLen(&u), len(enc), u)
		}
		dec, n, err := decodeOne(enc)
		if err != nil {
			t.Fatalf("iter %d: decode %v (% x): %v", i, u, enc, err)
		}
		if n != len(enc) {
			t.Fatalf("iter %d: consumed %d of %d", i, n, len(enc))
		}
		if normalize(dec) != u {
			t.Fatalf("iter %d:\n  in:  %+v\n  out: %+v\n  bytes: % x", i, u, normalize(dec), enc)
		}
	}
}

func TestCompactForms(t *testing.T) {
	// Two-address ADD with default flags must encode in 2 bytes.
	u := MicroOp{Op: UADD, W: 4, SetF: true, Dst: RT0, Src1: RT0, Src2: REAX}
	if EncodedLen(&u) != 2 {
		t.Errorf("two-address add should be compact")
	}
	// Three-address ADD cannot be compact.
	u.Src1 = REBX
	if EncodedLen(&u) != 4 {
		t.Errorf("three-address add should be wide")
	}
	// Sub-width op cannot be compact.
	u2 := MicroOp{Op: UMOV, W: 1, Dst: REAX, Src1: RT0}
	if EncodedLen(&u2) != 4 {
		t.Errorf("byte-width mov should be wide")
	}
	// Load with displacement cannot be compact.
	u3 := MicroOp{Op: ULD, W: 4, Dst: REAX, Src1: RESP, Imm: 8}
	if EncodedLen(&u3) != 4 {
		t.Errorf("ld with disp should be wide")
	}
	u3.Imm = 0
	if EncodedLen(&u3) != 2 {
		t.Errorf("ld disp0 should be compact")
	}
}

func TestEncodeAllOffsets(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVI, W: 4, Dst: RT0, Imm: 5},                           // 4 bytes
		{Op: UADD, W: 4, SetF: true, Dst: RT0, Src1: RT0, Src2: REAX}, // 2
		{Op: UEXIT, W: 4, Imm: 0},                                     // 4
	}
	code, offs, err := EncodeAll(uops)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 6}
	for i, w := range want {
		if offs[i] != w {
			t.Errorf("offset[%d] = %d, want %d", i, offs[i], w)
		}
	}
	if len(code) != 10 {
		t.Errorf("total bytes = %d, want 10", len(code))
	}
	back, err := DecodeAll(nil, code)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].Op != UMOVI || back[1].Op != UADD || back[2].Op != UEXIT {
		t.Errorf("decodeAll mismatch: %v", back)
	}
}

func TestImmRangeErrors(t *testing.T) {
	u := MicroOp{Op: ULD, W: 4, Dst: REAX, Src1: RESP, Imm: 5000}
	if _, err := Encode(nil, &u); err == nil {
		t.Error("imm11 overflow not detected")
	}
	u = MicroOp{Op: UMOVI, W: 4, Dst: REAX, Imm: 1 << 20}
	if _, err := Encode(nil, &u); err == nil {
		t.Error("imm16 overflow not detected")
	}
}

func execProgram(t *testing.T, uops []MicroOp, init func(*NativeState, *x86.Memory)) (*NativeState, *x86.Memory, ExecStats) {
	t.Helper()
	st := &NativeState{}
	mem := x86.NewMemory()
	if init != nil {
		init(st, mem)
	}
	var stats ExecStats
	kind, idx, err := Exec(&Env{St: st, Mem: mem}, uops, 0, &stats)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if kind != StopExit {
		t.Fatalf("stop kind = %v at %d", kind, idx)
	}
	return st, mem, stats
}

func TestExecALU(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVI, W: 4, Dst: RT0, Imm: 100},
		{Op: UMOVI, W: 4, Dst: RT1, Imm: 23},
		{Op: UADD, W: 4, SetF: true, Dst: REAX, Src1: RT0, Src2: RT1},
		{Op: USUBI, W: 4, SetF: true, Dst: REBX, Src1: REAX, Imm: 23},
		{Op: UEXIT, W: 4},
	}
	st, _, stats := execProgram(t, uops, nil)
	if st.R[REAX] != 123 || st.R[REBX] != 100 {
		t.Errorf("eax=%d ebx=%d", st.R[REAX], st.R[REBX])
	}
	if stats.Uops != 5 || stats.Entities != 5 {
		t.Errorf("stats=%+v", stats)
	}
}

func TestExecWideConstant(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVIU, W: 4, Dst: RT0, Imm: 0xDEAD},
		{Op: UORILO, W: 4, Dst: RT0, Imm: 0xBEEF},
		{Op: UEXIT, W: 4},
	}
	st, _, _ := execProgram(t, uops, nil)
	if st.R[RT0] != 0xDEADBEEF {
		t.Errorf("const = %#x", st.R[RT0])
	}
}

func TestExecMemory(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVIU, W: 4, Dst: RT0, Imm: 0x10}, // 0x100000
		{Op: UMOVI, W: 4, Dst: RT1, Imm: -2},
		{Op: UST, W: 4, Src1: RT0, Src2: RT1, Imm: 8},
		{Op: ULD16S, W: 4, Dst: REAX, Src1: RT0, Imm: 8},
		{Op: ULD8Z, W: 4, Dst: REBX, Src1: RT0, Imm: 9},
		{Op: UEXIT, W: 4},
	}
	st, mem, stats := execProgram(t, uops, nil)
	if mem.Read32(0x100008) != 0xFFFFFFFE {
		t.Errorf("store = %#x", mem.Read32(0x100008))
	}
	if st.R[REAX] != 0xFFFFFFFE {
		t.Errorf("ld16s = %#x", st.R[REAX])
	}
	if st.R[REBX] != 0xFF {
		t.Errorf("ld8z = %#x", st.R[REBX])
	}
	if stats.Loads != 2 || stats.Stores != 1 {
		t.Errorf("mem stats = %+v", stats)
	}
}

func TestExecBranching(t *testing.T) {
	// A counted loop: RT0 = 5; RT1 = 0; loop { RT1 += RT0; RT0--; } until zero.
	uops := []MicroOp{
		{Op: UMOVI, W: 4, Dst: RT0, Imm: 5},
		{Op: UMOVI, W: 4, Dst: RT1, Imm: 0},
		{Op: UADD, W: 4, Dst: RT1, Src1: RT1, Src2: RT0}, // index 2: loop head
		{Op: USUBI, W: 4, SetF: true, Dst: RT0, Src1: RT0, Imm: 1},
		{Op: UBR, W: 4, Cond: x86.CondNE, Imm: 2},
		{Op: UEXIT, W: 4},
	}
	st, _, stats := execProgram(t, uops, nil)
	if st.R[RT1] != 15 {
		t.Errorf("sum = %d, want 15", st.R[RT1])
	}
	if stats.Uops != 2+3*5+1 {
		t.Errorf("uops = %d", stats.Uops)
	}
}

func TestExecFusedEntities(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVI, W: 4, Dst: RT0, Imm: 7, Fused: true},  // head
		{Op: UADDI, W: 4, Dst: RT1, Src1: RT0, Imm: 1},    // tail
		{Op: UCMPI, W: 4, Src1: RT1, Imm: 8, Fused: true}, // head
		{Op: UBR, W: 4, Cond: x86.CondNE, Imm: 5},         // tail (not taken)
		{Op: UEXIT, W: 4},
		{Op: UEXIT, W: 4, Imm: 1},
	}
	st, _, stats := execProgram(t, uops, nil)
	if st.R[RT1] != 8 {
		t.Errorf("rt1 = %d", st.R[RT1])
	}
	if stats.Uops != 5 || stats.Entities != 3 {
		t.Errorf("fused stats = %+v (want 5 uops, 3 entities)", stats)
	}
}

func TestExecPartialWidth(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVIU, W: 4, Dst: REAX, Imm: 0x1234},
		{Op: UORILO, W: 4, Dst: REAX, Imm: 0x5678},
		{Op: UMOVI, W: 4, Dst: RT0, Imm: 0xFF},
		{Op: UMOV, W: 1, Dst: REAX, Src1: RT0},   // AL = 0xFF
		{Op: UINS8H, W: 4, Dst: REAX, Src1: RT0}, // AH = 0xFF
		{Op: UEXT8H, W: 4, Dst: REBX, Src1: REAX},
		{Op: UEXIT, W: 4},
	}
	st, _, _ := execProgram(t, uops, nil)
	if st.R[REAX] != 0x1234FFFF {
		t.Errorf("eax = %#x", st.R[REAX])
	}
	if st.R[REBX] != 0xFF {
		t.Errorf("ext8h = %#x", st.R[REBX])
	}
}

func TestExecSetcAndFlags(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVI, W: 4, Dst: RT0, Imm: 3},
		{Op: UCMPI, W: 4, Src1: RT0, Imm: 5},
		{Op: USETC, W: 1, Dst: REAX, Cond: x86.CondL},
		{Op: USETC, W: 1, Dst: REBX, Cond: x86.CondGE},
		{Op: UEXIT, W: 4},
	}
	st, _, _ := execProgram(t, uops, nil)
	if st.R[REAX]&0xFF != 1 || st.R[REBX]&0xFF != 0 {
		t.Errorf("setc: al=%d bl=%d", st.R[REAX]&0xFF, st.R[REBX]&0xFF)
	}
}

func TestExecCallout(t *testing.T) {
	uops := []MicroOp{
		{Op: UMOVI, W: 4, Dst: RT0, Imm: 1},
		{Op: UCALLOUT, W: 4, Imm: 3, X86PC: 0x401000},
		{Op: UEXIT, W: 4},
	}
	st := &NativeState{}
	mem := x86.NewMemory()
	var st2 ExecStats
	kind, idx, err := Exec(&Env{St: st, Mem: mem}, uops, 0, &st2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != StopCallout || idx != 1 {
		t.Errorf("stop = %v at %d", kind, idx)
	}
	// Resume after the callout.
	kind, idx, err = Exec(&Env{St: st, Mem: mem}, uops, idx+1, &st2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != StopExit || idx != 2 {
		t.Errorf("resume stop = %v at %d", kind, idx)
	}
}

func TestExecEscapeError(t *testing.T) {
	uops := []MicroOp{{Op: UNOP, W: 4}}
	_, _, err := Exec(&Env{St: &NativeState{}, Mem: x86.NewMemory()}, uops, 0, &ExecStats{})
	if err == nil {
		t.Fatal("expected escape error for translation without exit")
	}
}

func TestArchStateRoundTrip(t *testing.T) {
	var ast x86.State
	for i := range ast.R {
		ast.R[i] = uint32(i * 1000)
	}
	ast.Flags = x86.FlagZF | x86.FlagCF
	var nst NativeState
	nst.LoadArch(&ast)
	var back x86.State
	nst.StoreArch(&back)
	back.EIP = ast.EIP
	if !back.Equal(&ast) {
		t.Errorf("arch state round trip: %+v vs %+v", back, ast)
	}
}

func TestCanFuseRules(t *testing.T) {
	head := MicroOp{Op: UADD, W: 4, SetF: true, Dst: RT0, Src1: REAX, Src2: REBX}
	dep := MicroOp{Op: UADD, W: 4, SetF: true, Dst: REAX, Src1: RT0, Src2: RECX}
	indep := MicroOp{Op: UADD, W: 4, SetF: true, Dst: REAX, Src1: RECX, Src2: REDX}
	if !CanFuse(&head, &dep) {
		t.Error("dependent pair should fuse")
	}
	// Flag-dependent branch counts as dependent on a flag producer.
	br := MicroOp{Op: UBR, Cond: x86.CondE, Imm: 9}
	if !CanFuse(&head, &br) {
		t.Error("flag producer + branch should fuse")
	}
	if CanFuse(&head, &indep) {
		t.Error("independent pair must not fuse")
	}
	ld := MicroOp{Op: ULD, W: 4, Dst: RT0, Src1: REAX}
	if CanFuse(&ld, &dep) {
		t.Error("load cannot head a pair")
	}
	ldTail := MicroOp{Op: ULD, W: 4, Dst: RT2, Src1: RT0}
	if !CanFuse(&head, &ldTail) {
		t.Error("ALU + dependent load should fuse")
	}
	already := head
	already.Fused = true
	if CanFuse(&already, &dep) {
		t.Error("already-fused head must not refuse")
	}
	exit := MicroOp{Op: UEXIT}
	if CanFuse(&head, &exit) {
		t.Error("exit cannot be a tail")
	}
	cmp := MicroOp{Op: UCMP, W: 4, Src1: RT0, Src2: REAX}
	if !CanFuse(&cmp, &br) {
		t.Error("cmp + br should fuse")
	}
}

// decodeOne decodes one micro-op from buf the way DecodeAll decodes
// each: it returns the micro-op and the bytes consumed.
func decodeOne(buf []byte) (MicroOp, int, error) {
	var u MicroOp
	n, err := decodeTo(&u, buf)
	return u, n, err
}
