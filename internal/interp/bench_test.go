package interp_test

import (
	"testing"

	"codesignvm/internal/interp"
	"codesignvm/internal/workload"
)

// BenchmarkInterpStep interprets an application from its entry, one
// Step per op (decode + execute of one dynamic instruction).
func BenchmarkInterpStep(b *testing.B) {
	prog, err := workload.App("Word", 25)
	if err != nil {
		b.Fatal(err)
	}
	m := interp.New(prog.InitState(), prog.Memory())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted {
			b.StopTimer()
			m = interp.New(prog.InitState(), prog.Memory())
			b.StartTimer()
		}
		if _, err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
}

// TestStepZeroAlloc: interpreting a non-faulting instruction allocates
// nothing (Step decodes every dynamic instruction).
func TestStepZeroAlloc(t *testing.T) {
	prog, err := workload.App("Word", 25)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog.InitState(), prog.Memory())
	if _, err := m.Run(20_000); err != nil { // touch the pages the loop writes
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5000, func() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Step allocated %v times per instruction, want 0", n)
	}
}
