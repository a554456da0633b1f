package vmm

import (
	"math"

	"codesignvm/internal/codecache"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
)

// Observability wiring. The VM carries an optional *vmObs holding the
// run's recorder plus the handles of the metrics that have no source
// but their site, so every such site costs one nil check when
// observability is disabled and no registry lookups when it is enabled.
// Everything else is mirrored from the statistics the VM already keeps,
// once, at run end. The only events are the host span of each Run.
// Nothing here is read back by the simulation: observability is purely
// observational (see internal/obs).

// vmObs caches the metric handles of one run's recorder.
type vmObs struct {
	rec *obs.Recorder

	// Mirrored at run end from the VM's own statistics (obsRunEnd).
	bbtTranslations *obs.Counter
	sbtPromotions   *obs.Counter
	chains          *obs.Counter
	bbtFlushes      *obs.Counter
	sbtFlushes      *obs.Counter
	shadowEvicts    *obs.Counter
	jtlbEpochs      *obs.Counter

	// Updated at their (rare) sites: nothing else counts them.
	unchains    *obs.Counter
	bbtBlockX86 *obs.Histogram
	sbtBlockX86 *obs.Histogram

	// Warm-start restore handles, registered lazily by obsRestoreInit
	// (from VM.Restore): runs that never restore keep exactly the
	// pre-warm-start metric set, so their snapshots — and anything
	// derived from them — are unchanged byte for byte.
	restoreFaults *obs.Counter
}

// SetObserver attaches (or, with nil, detaches) an observability
// recorder. Call it before Run. The recorder hangs off the VM, never
// off Config: Config must stay a flat comparable value — it keys the
// experiment-layer run caches and is hashed for the persistent store.
//
// When the recorder carries a Timeline (Observer.EnableTimeline), the
// interval sampler is armed as well: Run captures a slice at each
// interval boundary; Result.Timeline is that timeline.
func (v *VM) SetObserver(rec *obs.Recorder) {
	v.tl = rec.Timeline()
	v.res.Timeline = v.tl
	v.prof = rec.Attrib()
	if v.tl != nil {
		v.tlNext = v.tl.NextBoundary()
	} else {
		v.tlNext = math.Inf(1)
	}
	if rec == nil {
		v.obs = nil
		return
	}
	reg := rec.Reg
	v.obs = &vmObs{
		rec:             rec,
		bbtTranslations: reg.Counter("vm.bbt.translations", "blocks"),
		sbtPromotions:   reg.Counter("vm.sbt.promotions", "superblocks"),
		chains:          reg.Counter("vm.chain.links", "links"),
		unchains:        reg.Counter("vm.chain.unlinks", "blocks"),
		bbtFlushes:      reg.Counter("vm.cache.bbt.flushes", "flushes"),
		sbtFlushes:      reg.Counter("vm.cache.sbt.flushes", "flushes"),
		shadowEvicts:    reg.Counter("vm.shadow.evictions", "blocks"),
		jtlbEpochs:      reg.Counter("vm.jtlb.epochs", "epochs"),
		bbtBlockX86:     reg.Histogram("vm.bbt.block_x86", "x86 instrs", obs.BucketsPow2(2, 8)),
		sbtBlockX86:     reg.Histogram("vm.sbt.superblock_x86", "x86 instrs", obs.BucketsPow2(4, 8)),
	}
}

// obsRunStart opens the run's host span.
func (v *VM) obsRunStart() {
	v.obs.rec.Emit(obs.EvRunStart, 0, 0, 0, 0)
}

// obsRunEnd mirrors the statistics the simulator already keeps (Result
// fields, code-cache stats) into the registry — mirrored once here
// instead of double-counted on the hot path — closes the run's host
// span, and attaches the snapshot to the Result.
func (v *VM) obsRunEnd() {
	o := v.obs
	reg := o.rec.Reg
	bbt, sbt := v.bbtCache.Stats(), v.sbtCache.Stats()
	o.bbtTranslations.Store(v.res.BBTTranslations)
	o.sbtPromotions.Store(v.res.SBTTranslations)
	o.chains.Store(bbt.Chains + sbt.Chains)
	o.bbtFlushes.Store(bbt.Flushes)
	o.sbtFlushes.Store(sbt.Flushes)
	o.shadowEvicts.Store(v.res.ShadowEvictions)
	o.jtlbEpochs.Store((v.res.JTLBHits + v.res.JTLBMisses) >> 16) // one per 65536 slow-path lookups
	reg.Counter("vm.run.instrs", "instrs").Store(v.res.Instrs)
	reg.Gauge("vm.run.cycles", "cycles").Set(v.res.Cycles)
	reg.Counter("vm.run.callouts", "callouts").Store(v.res.Callouts)
	reg.Counter("vm.jtlb.hits", "lookups").Store(v.res.JTLBHits)
	reg.Counter("vm.jtlb.misses", "lookups").Store(v.res.JTLBMisses)
	reg.Gauge("vm.shadow.resident", "blocks").Set(float64(v.shadow.len()))
	for _, c := range [...]struct {
		name  string
		cache *codecache.Cache
	}{{"bbt", v.bbtCache}, {"sbt", v.sbtCache}} {
		st := c.cache.Stats()
		p := "vm.cache." + c.name + "."
		reg.Counter(p+"inserts", "translations").Store(st.Inserts)
		reg.Counter(p+"lookups", "lookups").Store(st.Lookups)
		reg.Counter(p+"hits", "lookups").Store(st.Hits)
		reg.Counter(p+"chains", "links").Store(st.Chains)
		reg.Gauge(p+"used", "bytes").Set(float64(c.cache.Used()))
		reg.Gauge(p+"live", "translations").Set(float64(c.cache.Len()))
	}
	if v.warm != nil {
		reg.Counter("vm.restore.translations", "translations").Store(v.res.RestoredTranslations)
		reg.Counter("vm.restore.x86", "instrs").Store(v.res.RestoredX86)
		reg.Gauge("vm.restore.pending", "translations").
			Set(float64(len(v.warm.bbt) + len(v.warm.sbt)))
	}
	if s := v.res.Attrib; s != nil {
		// Mirror the attribution categories as one labeled counter
		// family (OpenMetrics: codesignvm_cycles_total{category="..."}).
		for c := attrib.Category(0); c < attrib.NumCategories; c++ {
			reg.CounterL("cycles", "cycles", obs.Label("category", c.String())).
				Store(uint64(math.Round(s.Cat[c])))
		}
		o.rec.SetAttrib(s)
	}
	o.rec.Emit(obs.EvRunEnd, 0, 0, 0, 0)
	v.res.Metrics = reg.Snapshot()
}

// obsRestoreInit registers the warm-start metric handles. Called from
// Restore, never from SetObserver, so cold runs' metric sets are
// untouched by the warm-start machinery existing.
func (v *VM) obsRestoreInit() {
	o := v.obs
	o.restoreFaults = o.rec.Reg.Counter("vm.restore.faults", "faults")
}
