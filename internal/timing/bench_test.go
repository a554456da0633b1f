package timing

import (
	"testing"

	"codesignvm/internal/bbt"
	"codesignvm/internal/codecache"
	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// staticBlocks translates every basic block a linear sweep of an
// application's code finds (a leader is the entry or the instruction
// after a control transfer).
func staticBlocks(tb testing.TB) ([]*codecache.Translation, *x86.Memory) {
	tb.Helper()
	prog, err := workload.App("Word", 25)
	if err != nil {
		tb.Fatal(err)
	}
	mem := prog.Memory()
	var blocks []*codecache.Translation
	for off := 0; off < len(prog.Code); {
		t, err := new(bbt.Scratch).Translate(mem, workload.CodeBase+uint32(off), bbt.DefaultConfig)
		if err != nil {
			tb.Fatalf("block at +%#x: %v", off, err)
		}
		blocks = append(blocks, t)
		off += t.X86Bytes
	}
	return blocks, mem
}

// BenchmarkAnalyze runs the static issue-shape analysis over every
// basic block of an application, into each block's retained Meta
// buffer (the scratch-and-commit steady state); one op is one pass.
func BenchmarkAnalyze(b *testing.B) {
	blocks, _ := staticBlocks(b)
	uops := 0
	for _, t := range blocks {
		AnalyzeWith(t, DefaultParams)
		uops += len(t.Uops)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range blocks {
			AnalyzeWith(t, DefaultParams)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*uops), "ns/uop")
}

// TestTranslateAnalyzeZeroAlloc: the cold path's translate + analyze
// step allocates nothing once the scratch translation and its Meta
// buffer have grown to the largest block.
func TestTranslateAnalyzeZeroAlloc(t *testing.T) {
	blocks, mem := staticBlocks(t)
	var scratch bbt.Scratch
	var meta []codecache.UopMeta
	pass := func() {
		for _, b := range blocks {
			tr, err := scratch.Translate(mem, b.EntryPC, bbt.DefaultConfig)
			if err != nil {
				t.Fatal(err)
			}
			tr.Meta = meta
			AnalyzeWith(tr, DefaultParams)
			meta = tr.Meta
		}
	}
	pass() // grow the buffers
	if n := testing.AllocsPerRun(3, pass); n != 0 {
		t.Errorf("translate+analyze of %d blocks allocated %v times per pass, want 0", len(blocks), n)
	}
}
