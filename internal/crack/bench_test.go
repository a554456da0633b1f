package crack

import (
	"testing"

	"codesignvm/internal/fisa"
	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// BenchmarkCrack cracks every static instruction of an application into
// a reused micro-op buffer; one op is one pass over the program.
func BenchmarkCrack(b *testing.B) {
	prog, err := workload.App("Word", 25)
	if err != nil {
		b.Fatal(err)
	}
	type located struct {
		in x86.Inst
		pc uint32
	}
	var insts []located
	for off := 0; off < len(prog.Code); {
		in, err := x86.Decode(prog.Code[off:])
		if err != nil {
			b.Fatalf("static code does not decode at +%#x: %v", off, err)
		}
		insts = append(insts, located{in, workload.CodeBase + uint32(off)})
		off += int(in.Len)
	}
	buf := make([]fisa.MicroOp, 0, 64)
	uops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uops = 0
		for j := range insts {
			out, desc, err := Crack(buf[:0], &insts[j].in, insts[j].pc)
			if err != nil {
				b.Fatal(err)
			}
			uops += desc.NUops
			buf = out[:0]
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(len(insts)), "ns/inst")
	b.ReportMetric(ns/float64(uops), "ns/uop")
}
