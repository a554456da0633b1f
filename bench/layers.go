package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"codesignvm"
	"codesignvm/internal/bbt"
	"codesignvm/internal/bpred"
	"codesignvm/internal/cache"
	"codesignvm/internal/codecache"
	"codesignvm/internal/crack"
	"codesignvm/internal/experiments"
	"codesignvm/internal/fisa"
	"codesignvm/internal/hwassist"
	"codesignvm/internal/interp"
	"codesignvm/internal/profile"
	"codesignvm/internal/sbt"
	"codesignvm/internal/timing"
	"codesignvm/internal/x86"
)

// Every import of codesignvm/internal/... by the benchmark is in this
// file: the run-cache reset two workloads need, and the stand-alone
// probes of the leaf layers. A refactor that moves a layer touches this
// file only.

// resetRunCache empties the process-wide simulation memoization, so the
// next report is served by the run store or simulated.
func resetRunCache() { experiments.ResetRunCacheForTest() }

// harvestInstrs is the length of the VM.soft run whose code caches feed
// the probes: long enough to translate what the workloads execute and
// to promote the hot superblocks.
const harvestInstrs = 2_000_000

// probeBase is where the cache probe's addresses start (the workloads'
// data segment).
const probeBase = 0x10000000

// timed runs pass repeatedly for at least box (and at least three
// times) and returns the median ns per unit of work; pass returns the
// units it did.
func timed(box time.Duration, pass func() int) float64 {
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < box; {
		t0 := time.Now()
		n := pass()
		d := time.Since(t0)
		if n > 0 {
			per = append(per, float64(d)/float64(n))
		}
		if len(per) == 0 {
			return 0
		}
	}
	return median(per)
}

// liveTranslations returns a cache's translations in entry-PC order.
func liveTranslations(c *codecache.Cache) []*codecache.Translation {
	var out []*codecache.Translation
	c.ForEach(func(t *codecache.Translation) { out = append(out, t) })
	sort.Slice(out, func(i, j int) bool { return out[i].EntryPC < out[j].EntryPC })
	return out
}

// leafProbes measures each leaf layer alone, through its public
// functions, on what a VM.soft run of prog left in its code caches: the
// block entry PCs, the decoded instructions, the translations and the
// edge profile are the workload's own. Each timing is a median over
// repeated passes of box each.
func leafProbes(prog *codesignvm.Program, box time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	vm := codesignvm.NewVM(codesignvm.VMSoft, prog)
	if _, err := vm.Run(harvestInstrs); err != nil {
		return nil, fmt.Errorf("harvest run: %w", err)
	}
	bbtCache, sbtCache := vm.Caches()
	blocks, supers := liveTranslations(bbtCache), liveTranslations(sbtCache)
	if len(blocks) == 0 || len(supers) == 0 {
		return nil, fmt.Errorf("harvest run left %d blocks and %d superblocks", len(blocks), len(supers))
	}
	mem := prog.Memory()

	// x86: decode every instruction of every harvested block.
	type located struct {
		in x86.Inst
		pc uint32
	}
	var insts []located
	for _, b := range blocks {
		pc := b.EntryPC
		for i := 0; i < b.NumX86; i++ {
			in, err := x86.DecodeMem(mem, pc)
			if err != nil {
				return nil, fmt.Errorf("decode %#x: %w", pc, err)
			}
			insts = append(insts, located{in, pc})
			pc += uint32(in.Len)
		}
	}
	m["x86.insts_decoded"] = float64(len(insts))
	m["x86.decode_ns_per_inst"] = timed(box, func() int {
		for i := range insts {
			if _, err := x86.DecodeMem(mem, insts[i].pc); err != nil {
				return 0
			}
		}
		return len(insts)
	})

	// crack: the one x86→micro-op cracker on the decoded instructions.
	var buf []fisa.MicroOp
	uops := 0
	m["crack.ns_per_inst"] = timed(box, func() int {
		uops = 0
		for i := range insts {
			out, _, err := crack.Crack(buf[:0], &insts[i].in, insts[i].pc)
			if err != nil {
				return 0
			}
			buf = out
			uops += len(out)
		}
		return len(insts)
	})
	m["crack.uops_per_inst"] = ratio(float64(uops), float64(len(insts)))

	// bbt: the Scratch path the VM uses, block by block.
	var scratch bbt.Scratch
	var ms0, ms1 runtime.MemStats
	translate := func() int {
		n := 0
		for _, b := range blocks {
			t, err := scratch.Translate(mem, b.EntryPC, bbt.DefaultConfig)
			if err != nil {
				return 0
			}
			n += t.NumX86
		}
		return n
	}
	m["bbt.translate_ns_per_inst"] = timed(box, translate)
	runtime.ReadMemStats(&ms0)
	translate()
	runtime.ReadMemStats(&ms1)
	m["bbt.blocks"] = float64(len(blocks))
	m["bbt.allocs_per_block"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(blocks)))

	// sbt: re-form every harvested superblock from the edge profile the
	// run's block exits recorded (Exit.Count is what the VM fed its own
	// profile with).
	edges := profile.NewEdgeProfile()
	for _, b := range blocks {
		for _, e := range b.Exits {
			if e.BranchPC == 0 || e.Kind == codecache.ExitIndirect || e.Kind == codecache.ExitHalt {
				continue
			}
			for n := uint64(0); n < e.Count; n++ {
				edges.Record(e.BranchPC, e.Target)
			}
		}
	}
	var former sbt.Former
	fused, formedUops := 0, 0
	for _, s := range supers {
		t, err := former.Form(mem, s.EntryPC, edges, sbt.DefaultConfig)
		if err != nil {
			return nil, fmt.Errorf("form %#x: %w", s.EntryPC, err)
		}
		timing.AnalyzeWith(t, timing.DefaultParams)
		fused += 2 * t.FusedPairs
		formedUops += len(t.Uops)
	}
	m["sbt.superblocks"] = float64(len(supers))
	m["sbt.fused_ratio"] = ratio(float64(fused), float64(formedUops))
	m["sbt.form_ns_per_inst"] = timed(box, func() int {
		n := 0
		for _, s := range supers {
			t, err := former.Form(mem, s.EntryPC, edges, sbt.DefaultConfig)
			if err != nil {
				return 0
			}
			n += t.NumX86
		}
		return n
	})

	// interp: the golden interpreter (fig3's profile, VM.interp's cold code).
	im := interp.New(prog.InitState(), prog.Memory())
	m["interp.ns_per_inst"] = timed(box, func() int {
		n, err := im.Run(100_000)
		if err != nil {
			return 0
		}
		return int(n)
	})

	// hwassist: XLTx86 on the decoded instructions.
	xlt := hwassist.NewXLTUnit()
	m["hwassist.xlt_ns_per_inst"] = timed(box, func() int {
		for i := range insts {
			if _, _, _, err := xlt.Translate(mem, insts[i].pc); err != nil {
				return 0
			}
		}
		return len(insts)
	})
	m["hwassist.complex_ratio"] = ratio(float64(xlt.ComplexFallbacks), float64(xlt.Invocations))

	// timing: static analysis of, and dataflow replay over, every
	// harvested translation. The replay sees no queued misses or
	// mispredictions, so it is the model's cost on its fast path.
	all := append(append([]*codecache.Translation(nil), blocks...), supers...)
	allUops := 0
	for _, t := range all {
		allUops += len(t.Uops)
	}
	m["timing.analyze_ns_per_uop"] = timed(box, func() int {
		for _, t := range all {
			timing.AnalyzeWith(t, timing.DefaultParams)
		}
		return allUops
	})
	eng := timing.NewEngine(timing.DefaultParams)
	m["timing.charge_ns_per_uop"] = timed(box, func() int {
		for _, t := range all {
			eng.ChargeBlock(t, 0, len(t.Uops)-1)
		}
		return allUops
	})

	// cache: one L1D of the Table 2 geometry, always hitting (a working
	// set of 64 lines) and always missing (a sweep of 4× its capacity).
	l1d := cache.Table2().L1D.Config()
	c := cache.New(l1d)
	line := uint32(l1d.Line)
	m["cache.access_ns_hit"] = timed(box, func() int {
		for i := 0; i < 4096; i++ {
			c.Access(probeBase+uint32(i%64)*line, false)
		}
		return 4096
	})
	next := uint32(0)
	span := uint32(4 * l1d.Size)
	m["cache.access_ns_miss"] = timed(box, func() int {
		for i := 0; i < 4096; i++ {
			c.Access(probeBase+next, false)
			next = (next + line) % span
		}
		return 4096
	})
	ran := vm.Engine()
	m["cache.l1d_miss_ratio"] = ran.Caches.L1D.Stats().MissRate()

	// bpred: conditional prediction at the harvested branch PCs with
	// 80 %-biased outcomes; the misprediction ratio is the harvest run's.
	var branchPCs []uint32
	for _, b := range blocks {
		for _, e := range b.Exits {
			if e.BranchPC != 0 {
				branchPCs = append(branchPCs, e.BranchPC)
			}
		}
	}
	pred := bpred.New(bpred.DefaultConfig)
	rng := rand.New(rand.NewSource(int64(len(branchPCs))))
	taken := make([]bool, 4096)
	for i := range taken {
		taken[i] = rng.Intn(10) < 8
	}
	if len(branchPCs) > 0 {
		m["bpred.cond_ns"] = timed(box, func() int {
			for i, t := range taken {
				pred.Cond(branchPCs[i%len(branchPCs)], t)
			}
			return len(taken)
		})
	}
	ps := ran.Pred.Stats()
	m["bpred.mispredict_ratio"] = ratio(float64(ps.CondMispredict), float64(ps.CondBranches))

	// codecache: save the harvest run's caches, then parse, decode,
	// insert and look up what was saved.
	var saved bytes.Buffer
	t0 := time.Now()
	if err := vm.SaveTranslations(&saved); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	m["codecache.save_ms"] = float64(time.Since(t0)) / 1e6
	m["codecache.snapshot_kb"] = float64(saved.Len()) / 1024
	var snap *codecache.Snapshot
	m["codecache.parse_us"] = timed(box, func() int {
		s, err := codecache.ParseSnapshot(saved.Bytes())
		if err != nil {
			return 0
		}
		snap = s
		return 1
	}) / 1e3
	if snap == nil {
		return nil, fmt.Errorf("saved snapshot does not parse")
	}
	decoded := make([]*codecache.Translation, snap.Len())
	m["codecache.decode_ns_per_translation"] = timed(box, func() int {
		for i := range decoded {
			t, err := snap.Decode(i)
			if err != nil {
				return 0
			}
			decoded[i] = t
		}
		return len(decoded)
	})
	for _, t := range decoded {
		timing.AnalyzeWith(t, timing.DefaultParams)
	}
	var filled *codecache.Cache
	m["codecache.insert_ns"] = timed(box, func() int {
		filled = codecache.New("probe", 0xC0000000, 64<<20)
		for _, t := range decoded {
			if _, _, err := filled.Insert(t); err != nil {
				return 0
			}
		}
		return len(decoded)
	})
	m["codecache.lookup_ns"] = timed(box, func() int {
		for _, t := range decoded {
			if filled.Lookup(t.EntryPC) == nil {
				return 0
			}
		}
		return len(decoded)
	})
	return m, nil
}
