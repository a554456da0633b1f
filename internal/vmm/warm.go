package vmm

import (
	"fmt"
	"math"
	"sort"

	"codesignvm/internal/codecache"
	"codesignvm/internal/obs/attrib"
)

// Persistent-translation warm start: instead of re-translating every
// basic block and re-forming every superblock on startup, a run can
// attach a prior run's translation snapshot (codecache.Snapshot) with
// Restore and materialize translations from it — all up front
// (WarmEager), on first dispatch miss (WarmLazy), or the hottest head
// up front with a lazy tail (WarmHybrid). This is the paper's
// translate-once-reuse-later economics (§1.2) made a first-class
// simulated machine: restoring costs RestoreCyclesPerInst per covered
// x86 instruction (plus RestoreFaultCycles per lazy fault-in) instead
// of the 83-cycle/instruction software translator or the ~880-cycle
// superblock optimizer.
//
// Invariants (DESIGN.md §10):
//   - The snapshot is immutable and read-only; materialized
//     translations are rebuilt through the normal scratch-analyze-
//     Insert protocol, so they live in the cache arenas like any cold
//     translation and are recycled by flushes the same way.
//   - Every snapshot entry materializes at most once per run. A cache
//     flush recycles restored translations like cold ones; re-touched
//     PCs then translate cold (their index entries were consumed), so
//     capacity pressure is never hidden by re-restoring.
//   - Fault-ins happen only inside the dispatch slow path, in
//     dispatch order, which is deterministic per configuration — so a
//     warm run is as reproducible as a cold one.
type warmState struct {
	snap *codecache.Snapshot
	// Pending (not yet materialized) snapshot entries by entry PC, per
	// target cache. Entries are deleted as they materialize or poison.
	bbt map[uint32]int
	sbt map[uint32]int
	// scratch is where every record of the run is decoded: materialize
	// analyzes the translation there and Insert commits it, as
	// translateBBT does with bbt.Scratch.
	scratch codecache.DecodeScratch
}

// Restore attaches a parsed translation snapshot according to
// Cfg.WarmStart, eagerly preloading whatever the mode calls for, and
// returns the number of restorable entries. It must be called after
// SetObserver and before Run, at most once. WarmOff rejects the call:
// a cold configuration must stay exactly the historical machine.
func (v *VM) Restore(snap *codecache.Snapshot) (int, error) {
	if v.Cfg.WarmStart == WarmOff {
		return 0, fmt.Errorf("vmm: Restore requires Config.WarmStart != WarmOff")
	}
	if v.warm != nil {
		return 0, fmt.Errorf("vmm: Restore called twice")
	}
	if v.instrs != 0 {
		return 0, fmt.Errorf("vmm: Restore after Run")
	}
	// Both pending maps are sized up front: growing them entry by entry
	// was most of what a lazy Restore costs the host.
	nSBT := 0
	for i := range snap.Entries {
		if snap.Entries[i].Kind == codecache.KindSBT {
			nSBT++
		}
	}
	w := &warmState{
		snap: snap,
		bbt:  make(map[uint32]int, snap.Len()-nSBT),
		sbt:  make(map[uint32]int, nSBT),
	}
	for i := range snap.Entries {
		e := &snap.Entries[i]
		if e.Kind == codecache.KindSBT {
			w.sbt[e.EntryPC] = i
		} else {
			w.bbt[e.EntryPC] = i
		}
	}
	v.warm = w
	if v.obs != nil {
		v.obsRestoreInit()
	}

	var order []int
	switch v.Cfg.WarmStart {
	case WarmEager:
		order = make([]int, snap.Len())
		for i := range order {
			order[i] = i
		}
	case WarmHybrid:
		order = hottestEntries(snap, v.Cfg.WarmEagerFraction)
	}
	total := 0.0
	for _, i := range order {
		_, cost, err := v.materialize(i)
		if err != nil {
			return snap.Len(), err
		}
		total += cost
	}
	if total > 0 {
		// The bulk restore cost is charged as VMM work before Run.
		v.chargeAt(CatVMM, attrib.RestorePreload, 0, total)
	}
	return snap.Len(), nil
}

// hottestEntries orders the eager head of a hybrid restore: the top
// ceil(fraction×N) snapshot entries by saved retirement count, ties
// broken by kind then entry PC so the order — and therefore the
// preload's insertion order — is deterministic.
func hottestEntries(snap *codecache.Snapshot, fraction float64) []int {
	n := snap.Len()
	if n == 0 || fraction <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := &snap.Entries[idx[a]], &snap.Entries[idx[b]]
		if ea.Exec != eb.Exec {
			return ea.Exec > eb.Exec
		}
		if ea.Kind != eb.Kind {
			return ea.Kind > eb.Kind // SBT before BBT at equal heat
		}
		return ea.EntryPC < eb.EntryPC
	})
	head := int(math.Ceil(fraction * float64(n)))
	if head > n {
		head = n
	}
	return idx[:head]
}

// materialize decodes snapshot entry i, re-analyzes it for this
// machine's timing parameters and inserts it into the owning cache the
// way cold translation does, consuming the entry's pending-index slot.
// Returns the arena-committed translation and its simulated bulk
// restore cost.
func (v *VM) materialize(i int) (*codecache.Translation, float64, error) {
	e := &v.warm.snap.Entries[i]
	t, err := v.warm.snap.DecodeInto(i, &v.warm.scratch)
	if err != nil {
		return nil, 0, err
	}
	t.ExecCount = 0 // restored blocks profile afresh (e.Exec only orders preloads)
	v.analyze(t)
	cache, pending := v.bbtCache, v.warm.bbt
	if t.Kind == codecache.KindSBT {
		cache, pending = v.sbtCache, v.warm.sbt
	}
	t, flushed, err := cache.Insert(t)
	if err != nil {
		return nil, 0, err
	}
	if flushed {
		if t.Kind == codecache.KindSBT {
			v.onSBTFlush()
		} else {
			v.onBBTFlush()
		}
	}
	delete(pending, e.EntryPC)
	v.res.RestoredTranslations++
	v.res.RestoredX86 += uint64(t.NumX86)
	return t, v.Cfg.RestoreCyclesPerInst * float64(t.NumX86), nil
}

// warmFault consults the pending snapshot index for pc on a dispatch
// miss and materializes the entry on a hit — the lazy fault-in path,
// charged as VMM work (fixed fault surcharge plus the bulk cost).
// Returns nil when warm start is inactive, the entry is absent or
// already materialized, or the record fails to decode (the run then
// degrades to cold translation; unreachable for a snapshot that passed
// its checksum).
func (v *VM) warmFault(kind codecache.TransKind, pc uint32) *codecache.Translation {
	w := v.warm
	if w == nil {
		return nil
	}
	pending := w.bbt
	if kind == codecache.KindSBT {
		pending = w.sbt
	}
	i, ok := pending[pc]
	if !ok {
		return nil
	}
	t, cost, err := v.materialize(i)
	if err != nil {
		delete(pending, pc) // poisoned entry: never retry it
		return nil
	}
	v.chargeAt(CatVMM, attrib.RestoreFault, pc, v.Cfg.RestoreFaultCycles+cost)
	if v.obs != nil {
		v.obs.restoreFaults.Inc()
	}
	return t
}
