package vmm

import (
	"bytes"
	"testing"

	"codesignvm/internal/obs"
)

// timelineCSV exports one run's timeline, as its Result carries it, as
// CSV bytes.
func timelineCSV(t *testing.T, res *Result) []byte {
	t.Helper()
	o := obs.NewObserver(nil)
	o.EnableTimeline()
	o.Note("test", "", nil, res.Timeline)
	var buf bytes.Buffer
	if _, err := o.WriteTimelines(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTimelineIdenticalAcrossModes is the determinism golden test for
// the interval sampler: a run that only samples its timeline and a run
// that also streams events and attributes its cycles must export
// byte-identical timelines, long enough to be a meaningful golden.
// (Seed 4's program halts at 18k cycles, inside two slices of the
// 10k-cycle timeline interval, so seed 5 stands in for it.)
func TestTimelineIdenticalAcrossModes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5} {
		cfg := DefaultConfig(StratSoft)
		cfg.HotThreshold = 12
		cfg.BBTCacheSize = 256
		cfg.SBTCacheSize = 512
		plainObs := obs.NewObserver(nil)
		plainObs.EnableTimeline()
		resPlain, recPlain := observedRun(t, cfg, seed, 4_000_000, plainObs)
		resFull, _ := observedRun(t, cfg, seed, 4_000_000,
			armAll(tracing(), 4_000_000))
		if resPlain.Cycles != resFull.Cycles || resPlain.Instrs != resFull.Instrs {
			t.Fatalf("seed %d: observation modes disagree on the result itself", seed)
		}
		plainCSV, fullCSV := timelineCSV(t, resPlain), timelineCSV(t, resFull)
		if !bytes.Equal(plainCSV, fullCSV) {
			t.Fatalf("seed %d: timeline CSV differs between observation modes\nplain:\n%s\nfull:\n%s",
				seed, plainCSV, fullCSV)
		}
		if recPlain.Timeline().Len() < 3 {
			t.Fatalf("seed %d: timeline too short (%d slices) to be a meaningful golden",
				seed, recPlain.Timeline().Len())
		}
	}
}

// TestTimelineShowsStartupTransient pins the paper's phenomenon as seen
// through the sampler: early intervals are translation-dominated with
// low IPC; once the hotspot is promoted, late intervals run mostly SBT
// code at higher IPC.
func TestTimelineShowsStartupTransient(t *testing.T) {
	cfg := DefaultConfig(StratSoft)
	o := obs.NewObserver(nil)
	o.EnableTimeline()
	vm := New(cfg, freshMemory(buildHotLoop(false), 1), initState())
	vm.SetObserver(o.NewRun("transient"))
	res, err := vm.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rows := obs.TimelineRows(res.Timeline.Slices())
	if len(rows) < 4 {
		t.Fatalf("only %d timeline rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-2] // -2: skip the partial final slice
	if first.IPC >= last.IPC {
		t.Fatalf("no startup transient: first interval IPC %.3f >= late %.3f", first.IPC, last.IPC)
	}
	if first.XlateCycles == 0 {
		t.Fatal("first interval shows no translation cycles")
	}
	if last.SBTInstrs == 0 {
		t.Fatal("late interval shows no SBT instructions despite a hot loop")
	}
	if last.SBTUsed == 0 || last.BBTUsed == 0 {
		t.Fatalf("cache occupancy gauges empty at steady state: %+v", last)
	}
}

// TestObservedMatchesUnobservedWithTimeline extends the PR-3 invariant
// to the sampler: attaching a timeline-enabled recorder must not change
// any reported simulation result.
func TestObservedMatchesUnobservedWithTimeline(t *testing.T) {
	cfg := DefaultConfig(StratSoft)
	cfg.HotThreshold = 12
	plain := func() *Result {
		vm := New(cfg, freshMemory(buildProgram(5), 5), initState())
		res, err := vm.Run(4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	o := obs.NewObserver(nil)
	o.EnableTimeline()
	observed, rec := observedRun(t, cfg, 5, 4_000_000, o)
	if rec.Timeline().Len() == 0 {
		t.Fatal("timeline sampled nothing")
	}
	if plain.Timeline != nil || observed.Timeline != rec.Timeline() {
		t.Fatal("Result.Timeline is not the recorder's timeline (or a plain run carries one)")
	}
	clone := *observed
	clone.Metrics, clone.Timeline = nil, nil
	if plain.Cycles != clone.Cycles || plain.Instrs != clone.Instrs ||
		plain.Cat != clone.Cat || plain.BBTTranslations != clone.BBTTranslations ||
		plain.SBTTranslations != clone.SBTTranslations {
		t.Fatalf("timeline sampling changed reported results\nplain:    %+v\nobserved: %+v", plain, &clone)
	}
}
