package fisa

import (
	"math/rand"
	"testing"

	"codesignvm/internal/x86"
)

// TestDecodeArbitraryBytes: the micro-op decoder must never panic on
// arbitrary byte strings, and successful decodes must be internally
// consistent (valid op, 2 or 4 bytes consumed, re-encodable).
func TestDecodeArbitraryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF15A))
	buf := make([]byte, 8)
	ok := 0
	for i := 0; i < 200000; i++ {
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		u, n, err := decodeOne(buf)
		if err != nil {
			continue
		}
		ok++
		if n != 2 && n != 4 {
			t.Fatalf("iter %d: consumed %d bytes", i, n)
		}
		if int(u.Op) >= int(numUops) {
			t.Fatalf("iter %d: invalid op %d", i, u.Op)
		}
		_ = u.String()
		// Whatever decodes must re-encode (the fields are in range by
		// construction of the format).
		if _, err := Encode(nil, &u); err != nil {
			t.Fatalf("iter %d: re-encode of %v failed: %v", i, u, err)
		}
	}
	if ok < 10000 {
		t.Fatalf("too few successful decodes: %d", ok)
	}
}

// TestExecutorNeverDivergesOnRandomStraightLine: random data-processing
// micro-op sequences terminated by an exit always halt and never touch
// out-of-range state.
func TestExecutorNeverDivergesOnRandomStraightLine(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(30)
		uops := make([]MicroOp, 0, n+1)
		for j := 0; j < n; j++ {
			u := randUop(rng)
			// Keep control flow out; straight-line only.
			switch u.Op {
			case UBR, UJMP, UEXIT, UCALLOUT:
				u = MicroOp{Op: UNOP, W: 4}
			}
			// Loads/stores at a safe page.
			if u.IsLoad() || u.IsStore() {
				u.Src1 = RV0
				u.Imm = int32(rng.Intn(512))
			}
			uops = append(uops, u)
		}
		uops = append(uops, MicroOp{Op: UEXIT, W: 4})
		st := &NativeState{}
		st.R[RV0] = 0x100000
		mem := x86.NewMemory()
		var stats ExecStats
		kind, idx, err := Exec(&Env{St: st, Mem: mem}, uops, 0, &stats)
		if err != nil {
			t.Fatalf("iter %d: %v (uops %v)", i, err, uops)
		}
		if kind != StopExit || idx != len(uops)-1 {
			t.Fatalf("iter %d: stopped %v at %d", i, kind, idx)
		}
		if stats.Uops != len(uops) {
			// Fused pairs don't change uop counts in straight-line code.
			t.Fatalf("iter %d: executed %d of %d", i, stats.Uops, len(uops))
		}
	}
}
