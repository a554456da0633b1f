package x86_test

import (
	"testing"

	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// staticInsts loads a generated application and returns its memory
// image, its code bytes and the offset of every instruction found by a
// linear sweep of the code segment.
func staticInsts(b *testing.B) (*x86.Memory, []byte, []uint32) {
	b.Helper()
	prog, err := workload.App("Word", 25)
	if err != nil {
		b.Fatal(err)
	}
	var offs []uint32
	for off := 0; off < len(prog.Code); {
		in, err := x86.Decode(prog.Code[off:])
		if err != nil {
			b.Fatalf("static code does not decode at +%#x: %v", off, err)
		}
		offs = append(offs, uint32(off))
		off += int(in.Len)
	}
	return prog.Memory(), prog.Code, offs
}

var (
	sinkInst x86.Inst
	sinkErr  error
)

// BenchmarkDecode decodes every static instruction of an application
// from its code bytes; one op is one pass over the program.
func BenchmarkDecode(b *testing.B) {
	_, code, offs := staticInsts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, off := range offs {
			sinkInst, sinkErr = x86.Decode(code[off:])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(offs)), "ns/inst")
}

// BenchmarkDecodeMem is BenchmarkDecode through the paged memory, the
// form every translator and the interpreter use.
func BenchmarkDecodeMem(b *testing.B) {
	mem, _, offs := staticInsts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, off := range offs {
			sinkInst, sinkErr = x86.DecodeMem(mem, workload.CodeBase+off)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(offs)), "ns/inst")
}
