package timing_test

import (
	"testing"

	"codesignvm/internal/fisa"
	"codesignvm/internal/timing"
	"codesignvm/internal/workload"
)

// BenchmarkExecBlock runs the fused execute+timing pass over the hot
// set of a generated program — the SBT superblocks and BBT blocks a
// VM.soft run leaves in its code caches, which is what the repository
// benchmark's timing.charge_ns_per_uop replays — every leg of every
// translation from a fixed register state; one op is one pass. The
// caches and the predictor are warm, so this is the loop's own cost.
func BenchmarkExecBlock(b *testing.B) {
	prog, err := workload.App("Word", 100)
	if err != nil {
		b.Fatal(err)
	}
	supers, blocks, _ := hotTranslations(b, prog, timing.DefaultParams)
	all := append(supers, blocks...)
	init := initStates(prog)[1]
	eng := timing.NewEngine(timing.DefaultParams)
	mem := prog.Memory()

	uops, entities := 0, 0
	pass := func() {
		for _, tr := range all {
			st := init
			for start := 0; ; {
				var out fisa.ExecStats
				kind, idx, err := eng.ExecBlock(&st, mem, tr, start, &out)
				if err != nil {
					b.Fatal(err)
				}
				uops += out.Uops
				entities += out.Entities
				if kind != fisa.StopCallout {
					break
				}
				start = idx + 1
			}
		}
	}
	pass() // map the pages the stores touch
	if n := testing.AllocsPerRun(3, pass); n != 0 {
		b.Fatalf("ExecBlock over %d translations allocated %v times per pass, want 0", len(all), n)
	}

	uops, entities = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(uops), "ns/uop")
	b.ReportMetric(ns/float64(entities), "ns/entity")
}
