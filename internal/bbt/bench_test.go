package bbt

import (
	"testing"

	"codesignvm/internal/x86"
)

// BenchmarkBBTTranslateHot measures the translation path the VM
// actually runs in steady state: a reusable Scratch building into
// retained backing storage. After the first call has grown the
// buffers, translating a block allocates nothing — the arena commit
// at Insert (amortized slab growth, outside this package) is the only
// remaining heap traffic of translate-and-insert. scripts/ci.sh gates
// this benchmark's B/op against a ceiling so the scratch path cannot
// silently regress to per-call allocation.
func BenchmarkBBTTranslateHot(b *testing.B) {
	a := x86.NewAsm(base)
	a.Label("top")
	a.MovRI(x86.EAX, 0x1000)
	a.ALU(x86.ADD, 4, x86.R(x86.EAX), x86.R(x86.EBX))
	a.ALUI(x86.XOR, 4, x86.R(x86.EDX), 0x55)
	a.Mov(4, x86.M(x86.ESI, 16), x86.R(x86.EAX))
	a.Mov(4, x86.R(x86.EDI), x86.M(x86.ESI, 16))
	a.ALU(x86.SUB, 4, x86.R(x86.EDX), x86.R(x86.EDI))
	a.ALUI(x86.AND, 4, x86.R(x86.EAX), 0xFF)
	a.ALUI(x86.CMP, 4, x86.R(x86.ECX), 9)
	a.Jcc(x86.CondNE, "top")
	code, err := a.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	mem := x86.NewMemory()
	mem.WriteBytes(base, code)

	var s Scratch
	if _, err := s.Translate(mem, base, DefaultConfig); err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Translate(mem, base, DefaultConfig); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("warm Scratch.Translate allocates %.0f objects per block, budget is 0", allocs)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := s.Translate(mem, base, DefaultConfig)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Uops) == 0 {
			b.Fatal("empty translation")
		}
	}
}
