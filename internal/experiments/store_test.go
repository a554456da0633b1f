package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/machine"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/vmm"
)

// testTuning shrinks the lock-protocol timescales so steal/backoff
// paths run in milliseconds under test.
func testTuning() storeTuning {
	return storeTuning{
		lockStale: 250 * time.Millisecond,
		heartbeat: 50 * time.Millisecond,
		pollMin:   2 * time.Millisecond,
		pollMax:   20 * time.Millisecond,
		waitMax:   20 * time.Second,
		gcTmpAge:  250 * time.Millisecond,
	}
}

// testStore builds a runStore over a temp dir with test tuning.
func testStore(t *testing.T) *runStore {
	t.Helper()
	return &runStore{
		dir: t.TempDir(),
		fs:  faultfs.Disk{},
		tun: testTuning(),
		ctx: context.Background(),
	}
}

// load reads one run record through the store's read path, (nil, nil)
// on any miss; snapPath and profPath place the other two record kinds.
// Production code reaches all three only through fetch.
func (s *runStore) load(key string) (*vmm.Result, error) {
	res, _ := readRecord(s, key, s.runPath(key), decodeResult)
	return res, nil
}
func (s *runStore) snapPath(key string) string { return s.path(key, ".ccvm") }
func (s *runStore) profPath(key string) string { return s.path(key, ".prof") }

// sampleResult builds a fully populated Result so the round-trip test
// covers every encoded field with a distinct value.
func sampleResult() *vmm.Result {
	r := &vmm.Result{
		Strategy: vmm.StratSoft,
		Halted:   true,
		Instrs:   123456,
		Cycles:   987654.5,

		BBTUops: 11, BBTEntities: 12, SBTUops: 13, SBTEntities: 14,
		BBTTranslations: 15, SBTTranslations: 16,
		BBTX86Translated: 17, SBTX86Translated: 18,
		XltInvocations: 19, XltBusyCycles: 20, Callouts: 21,
		JTLBHits: 22, JTLBMisses: 23, ShadowEvictions: 24,
		SBTInstrs: 25, BBTInstrs: 26, X86Instrs: 27, InterpInstrs: 28,
		X86ModeCycles: 29.25,
	}
	for i := range r.Cat {
		r.Cat[i] = float64(i) * 1.5
	}
	r.Samples = []vmm.Sample{
		{Cycles: 100.5, Instrs: 10, XltBusy: 1.25},
		{Cycles: 200.5, Instrs: 20, XltBusy: 2.25},
	}
	for i := range r.Samples[1].Cat {
		r.Samples[1].Cat[i] = float64(i) + 0.5
	}
	r.Metrics = obs.Snapshot{
		{Name: "vm.bbt.translations", Unit: "blocks", Kind: obs.KindCounter, Value: 15},
		{Name: "vm.run.cycles", Unit: "cycles", Kind: obs.KindGauge, Value: 987654.5},
		{Name: "cycles", Unit: "cycles", Kind: obs.KindCounter, Value: 42,
			Labels: obs.Label("category", "bbt-exec")},
		{Name: "vm.bbt.block_x86", Unit: "x86 instrs", Kind: obs.KindHistogram,
			Value: 60, Count: 9,
			Buckets: []obs.Bucket{{Le: 4, Count: 3}, {Le: 8, Count: 6}, {Le: obs.InfBound, Count: 0}}},
	}
	r.Attrib = &attrib.Snapshot{
		TotalCycles: 987654.5,
		Residual:    -0.25,
		RegionBase:  0x00400000,
		RegionShift: 12,
		Regions: []attrib.RegionCycles{
			{Slot: 0}, {Slot: 3},
		},
		Phases: []attrib.Phase{
			{Milestone: 1000, Instrs: 1001, Cycles: 1500.5},
			{Milestone: 2000, Instrs: 2004, Cycles: 3100.25},
		},
	}
	for i := range r.Attrib.Cat {
		r.Attrib.Cat[i] = float64(i) * 2.25
	}
	r.Attrib.Regions[0].Cat[attrib.Chain] = 7.5
	r.Attrib.Regions[1].Cat[attrib.BBTExec] = 11.75
	r.Attrib.Phases[1].Cat[attrib.Interpret] = 99.5
	return r
}

// TestRunStoreRoundTrip: encodeResult followed by decodeResult must
// reproduce the Result exactly, including float bit patterns.
func TestRunStoreRoundTrip(t *testing.T) {
	want := sampleResult()
	got, err := decodeResult(encodeResult(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestRunStoreRoundTripNoAttrib: a result without an attribution
// snapshot (the common case) round-trips with Attrib nil, not a zero
// snapshot.
func TestRunStoreRoundTripNoAttrib(t *testing.T) {
	want := sampleResult()
	want.Attrib = nil
	got, err := decodeResult(encodeResult(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrib != nil {
		t.Fatalf("nil Attrib decoded as %+v", got.Attrib)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestRunStoreAttribKeySplits: attribution never changes simulated
// timing, but it changes the result payload — so the attribution-spec
// key must split the store key (runKey, the in-process cache key,
// carries it as a field), while two identical specs must share.
func TestRunStoreAttribKeySplits(t *testing.T) {
	opt := detOpt().withDefaults()
	cfg := opt.configFor(machine.VMSoft)
	spec := DefaultAttribSpec(1000)

	if runFileKey(cfg, "Word", 25, 1000, "") == runFileKey(cfg, "Word", 25, 1000, spec.Key()) {
		t.Error("attribution spec did not split the store key")
	}
	if runFileKey(cfg, "Word", 25, 1000, spec.Key()) != runFileKey(cfg, "Word", 25, 1000, spec.Key()) {
		t.Error("identical attribution specs split the store key")
	}

	// Options plumbing: attribKey follows the observer's state.
	if got := opt.attribKey(); got != "" {
		t.Errorf("attribKey with no observer = %q, want \"\"", got)
	}
	opt.Obs = obs.NewObserver(nil)
	if got := opt.attribKey(); got != "" {
		t.Errorf("attribKey with attribution off = %q, want \"\"", got)
	}
	opt.Obs.EnableAttrib(spec)
	if got := opt.attribKey(); got != spec.Key() {
		t.Errorf("attribKey = %q, want %q", got, spec.Key())
	}
}

// TestRunStoreRejectsTrailingGarbage: a structurally valid record with
// appended bytes must be rejected — both by the CRC trailer moving and
// by the trailing-EOF check (tested separately on the raw payload).
func TestRunStoreRejectsTrailingGarbage(t *testing.T) {
	rec := encodeResult(sampleResult())
	if _, err := decodeResult(append(append([]byte{}, rec...), 0xEE)); err == nil {
		t.Fatal("record with one appended byte decoded as valid")
	}
	// Even with a recomputed-correct CRC over extended payload, the
	// trailing-EOF check must fire: rebuild a record whose payload is
	// the original plus garbage.
	payload := append(append([]byte{}, rec[:len(rec)-4]...), 0xAA, 0xBB)
	if _, err := decodeResult(encodeTrailer(payload)); err == nil {
		t.Fatal("payload with trailing garbage (valid CRC) decoded as valid")
	}
}

// TestRunStoreLoadQuarantinesCorruption: corrupt entries read as a
// miss and are moved to a .bad sidecar so they are never re-read.
func TestRunStoreLoadQuarantinesCorruption(t *testing.T) {
	s := testStore(t)
	key := "deadbeef"
	if err := os.WriteFile(s.runPath(key), []byte("not a run record"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := storeCorrupt.Load()
	if res, err := s.load(key); res != nil || err != nil {
		t.Fatalf("corrupt entry: want (nil, nil), got (%v, %v)", res, err)
	}
	if storeCorrupt.Load() != before+1 {
		t.Fatal("corrupt load did not count")
	}
	if _, err := os.Stat(s.runPath(key)); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still in place after quarantine")
	}
	if _, err := os.Stat(filepath.Join(s.dir, key+".bad")); err != nil {
		t.Fatalf("no .bad sidecar after quarantine: %v", err)
	}

	// A valid record loads, is NOT quarantined, and counts a hit.
	if err := s.save(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if res, err := s.load(key); res == nil || err != nil {
		t.Fatalf("valid entry: want result, got (%v, %v)", res, err)
	}
	if _, err := os.Stat(s.runPath(key)); err != nil {
		t.Fatal("valid entry vanished after load")
	}
}

// TestRunStoreKeyNormalization: the store key is a pure function of the
// simulation's identity — equal identities share it, and a change of
// application or configuration splits it.
func TestRunStoreKeyNormalization(t *testing.T) {
	opt := detOpt().withDefaults()
	cfg := opt.configFor(machine.VMSoft)

	if runFileKey(cfg, "Word", 25, 1000, "") != runFileKey(opt.configFor(machine.VMSoft), "Word", 25, 1000, "") {
		t.Error("equal configurations split the store key")
	}
	if runFileKey(cfg, "Word", 25, 1000, "") == runFileKey(cfg, "Excel", 25, 1000, "") {
		t.Error("app name did not affect the store key")
	}
	other := cfg
	other.HotThreshold++
	if runFileKey(cfg, "Word", 25, 1000, "") == runFileKey(other, "Word", 25, 1000, "") {
		t.Error("config change did not affect the store key")
	}
}

// TestRunStorePersistsAcrossCacheReset simulates the cross-process
// case in-process: populate a store, wipe the in-memory memoization,
// and check the next request is served from disk (value-equal, with a
// store hit recorded) instead of re-simulating.
func TestRunStorePersistsAcrossCacheReset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Store = t.TempDir()
	cfg := opt.configFor(machine.VMSoft)

	resetRunCacheForTest()
	a, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}

	// A "new process": the sync.Map memoization is gone, only the disk
	// store remains.
	resetRunCacheForTest()
	before := storeHits.Load()
	b, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits.Load() != before+1 {
		t.Fatalf("expected exactly one store hit, got %d", storeHits.Load()-before)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("store-loaded result differs from the original simulation")
	}

	// FreshRuns skips store reads: no new hit, same answer.
	resetRunCacheForTest()
	fresh := opt
	fresh.FreshRuns = true
	before = storeHits.Load()
	c, err := fresh.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits.Load() != before {
		t.Fatal("FreshRuns read from the store")
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("fresh simulation differs from the stored result")
	}
}

// TestRunStoreLockSingleFlight: a process holding the lock makes any
// contender wait; publishing the result releases the contender with
// won=false so it re-reads the store instead of simulating.
func TestRunStoreLockSingleFlight(t *testing.T) {
	s := testStore(t)
	key := "cafef00d"

	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatalf("first contender did not win the lock (won=%v err=%v)", won, err)
	}

	type outcome struct {
		won bool
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, w, e := s.acquire(key, s.runPath(key))
		done <- outcome{w, e}
	}()

	select {
	case o := <-done:
		t.Fatalf("contender returned (won=%v err=%v) while the lock was held", o.won, o.err)
	case <-time.After(150 * time.Millisecond):
	}

	// Winner publishes its result; the waiter must observe it and lose.
	if err := s.save(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		if o.won || o.err != nil {
			t.Fatalf("contender won the lock despite a published result (won=%v err=%v)", o.won, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("contender never observed the published result")
	}
	release()
	if _, err := os.Stat(s.lockPath(key)); !os.IsNotExist(err) {
		t.Fatal("release left the lock file behind")
	}

	// With the lock released and a result on disk the next acquire
	// still wins (callers check the store before locking).
	release2, won2, err := s.acquire(key, s.runPath(key))
	if err != nil || !won2 {
		t.Fatal("post-release contender did not win the freed lock")
	}
	release2()
}

// TestRunStoreHeartbeatPreventsSteal: an owner simulating longer than
// lockStale must NOT lose its lock — the heartbeat refreshes the mtime
// so waiters keep waiting instead of stealing a live lock.
func TestRunStoreHeartbeatPreventsSteal(t *testing.T) {
	s := testStore(t)
	key := "11febeef"

	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatal("owner did not win the lock")
	}
	defer release()

	// Hold well past lockStale; a waiter in the background must neither
	// win nor steal while the heartbeat keeps the lock fresh.
	stealsBefore := storeSteals.Load()
	done := make(chan bool, 1)
	go func() {
		_, w, _ := s.acquire(key, s.runPath(key))
		done <- w
	}()
	select {
	case w := <-done:
		t.Fatalf("waiter returned (won=%v) while a heartbeating owner held the lock", w)
	case <-time.After(3 * s.tun.lockStale):
	}
	if storeSteals.Load() != stealsBefore {
		t.Fatal("a live, heartbeating lock was stolen")
	}
	// Publish so the waiter exits cleanly.
	if err := s.save(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if w := <-done; w {
		t.Fatal("waiter won the lock despite the published result")
	}
}

// TestRunStoreStaleSteal: a lock whose owner died (no heartbeat) is
// stolen after lockStale, and of many concurrent waiters exactly one
// simulation happens (the rest lose to the published result).
func TestRunStoreStaleSteal(t *testing.T) {
	s := testStore(t)
	key := "0ddba11"

	// A corpse: lock file with an old mtime and no owner refreshing it.
	if err := os.WriteFile(s.lockPath(key), []byte("pid 0 seq 0 t 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-10 * s.tun.lockStale)
	if err := os.Chtimes(s.lockPath(key), old, old); err != nil {
		t.Fatal(err)
	}

	stealsBefore := storeSteals.Load()
	const waiters = 8
	wins := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			release, won, err := s.acquire(key, s.runPath(key))
			if err != nil {
				t.Error(err)
				wins <- false
				return
			}
			if won {
				// The winner "simulates" briefly, publishes, releases.
				time.Sleep(20 * time.Millisecond)
				if err := s.save(key, sampleResult()); err != nil {
					t.Error(err)
				}
				release()
			}
			wins <- won
		}()
	}
	winners := 0
	for i := 0; i < waiters; i++ {
		if <-wins {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("want exactly 1 winner after stale steal, got %d", winners)
	}
	if got := storeSteals.Load() - stealsBefore; got != 1 {
		t.Fatalf("want exactly 1 steal, got %d", got)
	}
	if _, err := os.Stat(s.lockPath(key)); !os.IsNotExist(err) {
		t.Fatal("lock file left behind after steal + release")
	}
}

// TestRunStoreStealRaceExactlyOneWinner: the seed bug — two waiters
// both observe the same stale lock and both try to clear it; with the
// marker-arbitrated rename exactly one performs the steal per lock
// incarnation (the rest merely observe an already-clear path).
func TestRunStoreStealRaceExactlyOneWinner(t *testing.T) {
	s := testStore(t)
	key := "57ea1ace"
	lock := s.lockPath(key)

	for round := 0; round < 20; round++ {
		if err := os.WriteFile(lock, []byte("corpse\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-10 * s.tun.lockStale)
		if err := os.Chtimes(lock, old, old); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(lock)
		if err != nil {
			t.Fatal(err)
		}
		before := storeSteals.Load()
		const thieves = 8
		results := make(chan bool, thieves)
		start := make(chan struct{})
		for i := 0; i < thieves; i++ {
			go func() {
				<-start
				results <- s.steal(lock, key, st)
			}()
		}
		close(start)
		cleared := 0
		for i := 0; i < thieves; i++ {
			if <-results {
				cleared++
			}
		}
		if cleared < 1 {
			t.Fatalf("round %d: no thief cleared the corpse", round)
		}
		if got := storeSteals.Load() - before; got != 1 {
			t.Fatalf("round %d: want exactly 1 steal, got %d", round, got)
		}
		if _, err := os.Stat(lock); !os.IsNotExist(err) {
			t.Fatalf("round %d: lock still present after steal", round)
		}
	}
}

// TestRunStoreStealRespectsFreshLock: a steal attempt against an
// incarnation that was already replaced by a *fresh* lock must not
// touch the fresh lock (the re-stat guard).
func TestRunStoreStealRespectsFreshLock(t *testing.T) {
	s := testStore(t)
	key := "f4e5b10c"
	lock := s.lockPath(key)

	// The stale stat the would-be thief holds.
	if err := os.WriteFile(lock, []byte("corpse\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-10 * s.tun.lockStale)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	staleInfo, err := os.Stat(lock)
	if err != nil {
		t.Fatal(err)
	}

	// Meanwhile the corpse is cleared and a live owner takes the lock.
	if err := os.Remove(lock); err != nil {
		t.Fatal(err)
	}
	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatal("fresh owner did not win")
	}
	defer release()

	if s.steal(lock, key, staleInfo) {
		t.Fatal("steal succeeded against a fresh lock using a stale stat")
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatal("fresh lock was removed by the failed steal")
	}
}

// TestRunStoreReleaseAfterStealDoesNotRemoveNewLock: an owner whose
// lock was (legitimately) stolen must not remove the next owner's
// lock on release — release verifies the token first.
func TestRunStoreReleaseAfterStealDoesNotRemoveNewLock(t *testing.T) {
	s := testStore(t)
	key := "ab5c0nd"

	release1, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatal("first owner did not win")
	}
	// Simulate the first owner being presumed dead: its lock is
	// replaced by a second owner's.
	if err := os.Remove(s.lockPath(key)); err != nil {
		t.Fatal(err)
	}
	release2, won2, err := s.acquire(key, s.runPath(key))
	if err != nil || !won2 {
		t.Fatal("second owner did not win")
	}
	release1() // must NOT remove the second owner's lock
	if _, err := os.Stat(s.lockPath(key)); err != nil {
		t.Fatal("first owner's release removed the second owner's lock")
	}
	release2()
	if _, err := os.Stat(s.lockPath(key)); !os.IsNotExist(err) {
		t.Fatal("second owner's release left its lock behind")
	}
}

// TestRunStoreLockWaitDeadline: a peer that heartbeats but never
// publishes must not wedge the sweep — past waitMax the waiter
// degrades to simulating without the lock.
func TestRunStoreLockWaitDeadline(t *testing.T) {
	s := testStore(t)
	s.tun.waitMax = 300 * time.Millisecond
	key := "dead11ne"

	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatal("owner did not win")
	}
	defer release() // owner "hangs": never publishes, heartbeat keeps running

	before := storeTimeouts.Load()
	start := time.Now()
	rel2, won2, err := s.acquire(key, s.runPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if !won2 {
		t.Fatal("waiter neither timed out nor won")
	}
	rel2()
	if el := time.Since(start); el < s.tun.waitMax {
		t.Fatalf("waiter degraded after %v, before the %v deadline", el, s.tun.waitMax)
	}
	if storeTimeouts.Load() != before+1 {
		t.Fatal("degraded wait did not count a timeout")
	}
	// The owner still holds its lock: degradation must not remove it.
	if _, err := os.Stat(s.lockPath(key)); err != nil {
		t.Fatal("degraded waiter removed the owner's lock")
	}
}

// TestRunStoreLockWaitCancellation: a cancelled context aborts the
// lock wait promptly with the context's error.
func TestRunStoreLockWaitCancellation(t *testing.T) {
	s := testStore(t)
	key := "cance1ed"

	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatal("owner did not win")
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	s2 := *s
	s2.ctx = ctx
	done := make(chan error, 1)
	go func() {
		_, _, err := s2.acquire(key, s2.runPath(key))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
}

// TestCancelledWaitIsNotMemoized: a lock wait cancelled through one
// request's context fails that request only. The memo keeps values,
// never errors: the next request for the same run — fresh context, the
// peer's lock gone — must simulate and succeed, not be handed the stale
// "context canceled".
func TestCancelledWaitIsNotMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Store = t.TempDir()
	tun := testTuning()
	tun.lockStale = time.Minute // the held lock must outlive the wait, not be stolen
	opt.storeTun = &tun
	opt.storeFS = faultfs.Disk{}
	cfg := opt.configFor(machine.VMSoft)
	ResetRunCacheForTest()

	// A peer process holds the run's lock.
	s := opt.store()
	key := runFileKey(cfg, "Word", opt.Scale, opt.ShortInstrs, "")
	if err := os.WriteFile(s.lockPath(key), []byte("pid 1 seq 1 t 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	first := opt
	first.Ctx = ctx
	done := make(chan error, 1)
	go func() {
		_, err := first.runApp(cfg, "Word", opt.ShortInstrs)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let it reach the wait; cancelling earlier ends it the same way
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	if _, err := os.Stat(s.runPath(key)); !os.IsNotExist(err) {
		t.Fatal("the cancelled request published a record")
	}

	// The peer goes away without publishing; the same process asks again.
	if err := os.Remove(s.lockPath(key)); err != nil {
		t.Fatal(err)
	}
	res, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatalf("request after the cancelled one failed: %v", err)
	}
	if res == nil || res.Instrs == 0 {
		t.Fatalf("request after the cancelled one returned %+v", res)
	}
	if _, err := os.Stat(s.runPath(key)); err != nil {
		t.Fatalf("request after the cancelled one did not simulate and publish: %v", err)
	}
}

// TestCancelledFillWaitersRetry: a request blocked on another request's
// fill of the same run is not failed by that request's cancellation.
// The first request fills (and waits on a peer's lock); the second joins
// its slot; cancelling the first must leave the second to fill under its
// own live context, simulate once the lock is gone, and publish.
func TestCancelledFillWaitersRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Store = t.TempDir()
	tun := testTuning()
	tun.lockStale = time.Minute
	opt.storeTun = &tun
	opt.storeFS = faultfs.Disk{}
	cfg := opt.configFor(machine.VMSoft)
	ResetRunCacheForTest()

	s := opt.store()
	key := runFileKey(cfg, "Word", opt.Scale, opt.ShortInstrs, "")
	if err := os.WriteFile(s.lockPath(key), []byte("pid 1 seq 1 t 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *vmm.Result
		err error
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := opt
	first.Ctx = ctx
	firstDone := make(chan outcome, 1)
	go func() {
		res, err := first.runApp(cfg, "Word", opt.ShortInstrs)
		firstDone <- outcome{res, err}
	}()
	time.Sleep(30 * time.Millisecond) // the first request is now the filler, waiting on the lock
	secondDone := make(chan outcome, 1)
	go func() {
		res, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
		secondDone <- outcome{res, err}
	}()
	time.Sleep(30 * time.Millisecond) // the second request is now blocked on the first's fill
	cancel()
	select {
	case o := <-firstDone:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("cancelled request returned %v, want context.Canceled", o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
	if err := os.Remove(s.lockPath(key)); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-secondDone:
		if o.err != nil {
			t.Fatalf("live request sharing the cancelled fill failed: %v", o.err)
		}
		if o.res == nil || o.res.Instrs == 0 {
			t.Fatalf("live request returned %+v", o.res)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("live request did not return")
	}
	if _, err := os.Stat(s.runPath(key)); err != nil {
		t.Fatalf("live request did not simulate and publish: %v", err)
	}
}

// TestCancelledWaitSnapshotNotMemoized: the snapshot memo has the same
// shape and the same rule.
func TestCancelledWaitSnapshotNotMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Store = t.TempDir()
	tun := testTuning()
	tun.lockStale = time.Minute
	opt.storeTun = &tun
	opt.storeFS = faultfs.Disk{}
	cold := opt.configFor(machine.VMSoft)
	ResetRunCacheForTest()

	s := opt.store()
	key := snapFileKey(cold, "Word", opt.Scale, opt.ShortInstrs)
	if err := os.WriteFile(s.lockPath(key), []byte("pid 1 seq 1 t 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	first := opt
	first.Ctx = ctx
	if _, err := first.snapshot(cold, "Word", opt.ShortInstrs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
	}
	if err := os.Remove(s.lockPath(key)); err != nil {
		t.Fatal(err)
	}
	snap, err := opt.snapshot(cold, "Word", opt.ShortInstrs)
	if err != nil || snap == nil || snap.Len() == 0 {
		t.Fatalf("request after the cancelled one: snapshot %v, err %v", snap, err)
	}
}

// TestPanickingBuildLeavesNoTrace: a store-backed memo fill whose build
// panics leaves neither its lock (the heartbeat would hold it for the
// life of the process) nor its memo slot (which would serve a zero value
// as a success). The job service recovers such a panic and keeps
// serving, so the next request for the key must build afresh.
func TestPanickingBuildLeavesNoTrace(t *testing.T) {
	tun := testTuning()
	opt := Options{Store: t.TempDir(), storeFS: faultfs.Disk{}, storeTun: &tun}
	var m memo[string, []byte]
	get := func(build func() ([]byte, error)) ([]byte, error) {
		return m.get(context.Background(), "k", func() ([]byte, error) {
			return fetch(opt, artifact[[]byte]{
				key:    func() string { return "feedface" },
				ext:    ".run",
				tag:    func() string { return "panic" },
				decode: func(b []byte) ([]byte, error) { return b, nil },
				encode: func(b []byte) []byte { return b },
				build:  build,
			})
		})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach the caller")
			}
		}()
		get(func() ([]byte, error) { panic("simulated fault") })
	}()
	if _, err := os.Stat(filepath.Join(opt.Store, "feedface.lock")); !os.IsNotExist(err) {
		t.Fatalf("the panicking build left its lock behind (stat: %v)", err)
	}
	if v, err := get(func() ([]byte, error) { return []byte("ok"), nil }); err != nil || string(v) != "ok" {
		t.Fatalf("request after the panic = %q, %v; want a fresh build", v, err)
	}
}

// emptyLock plants a 0-byte lock file of the given age: what a process
// SIGKILLed between creating its lock and writing its token leaves.
func emptyLock(t *testing.T, s *runStore, key string, age time.Duration) {
	t.Helper()
	if err := os.WriteFile(s.lockPath(key), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now().Add(-age)
	if err := os.Chtimes(s.lockPath(key), mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyLockStolenOnce: an empty lock older than one heartbeat is a
// dead owner's — no live owner leaves its token unwritten that long —
// and goes through the normal steal arbitration well inside lockStale:
// of N waiters exactly one steals, exactly one builds.
func TestEmptyLockStolenOnce(t *testing.T) {
	s := testStore(t)
	s.tun.lockStale = time.Minute // only the empty-lock rule can fire
	key := "e0e0e0"
	emptyLock(t, s, key, 4*s.tun.heartbeat)

	stealsBefore := storeSteals.Load()
	const waiters = 8
	wins := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			release, won, err := s.acquire(key, s.runPath(key))
			if err != nil {
				t.Error(err)
				wins <- false
				return
			}
			if won {
				time.Sleep(20 * time.Millisecond)
				if err := s.save(key, sampleResult()); err != nil {
					t.Error(err)
				}
				release()
			}
			wins <- won
		}()
	}
	winners := 0
	for i := 0; i < waiters; i++ {
		select {
		case won := <-wins:
			if won {
				winners++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiters sat out an empty lock")
		}
	}
	if winners != 1 {
		t.Fatalf("want exactly 1 winner after the empty-lock steal, got %d", winners)
	}
	if got := storeSteals.Load() - stealsBefore; got != 1 {
		t.Fatalf("want exactly 1 steal, got %d", got)
	}
	if _, err := os.Stat(s.lockPath(key)); !os.IsNotExist(err) {
		t.Fatal("lock file left behind after steal + release")
	}

	// GC applies the same rule.
	emptyLock(t, s, "e1e1e1", 4*s.tun.heartbeat)
	s.gc()
	if _, err := os.Stat(s.lockPath("e1e1e1")); !os.IsNotExist(err) {
		t.Fatal("GC left an empty lock older than a heartbeat")
	}
}

// TestEmptyLockFreshUntouched: an empty lock younger than a heartbeat
// may be a live owner about to write its token. Waiters wait on it —
// here until their deadline — and neither they nor GC remove it.
func TestEmptyLockFreshUntouched(t *testing.T) {
	s := testStore(t)
	s.tun.heartbeat = time.Minute
	s.tun.lockStale = 10 * time.Minute
	s.tun.waitMax = 200 * time.Millisecond
	key := "f2e5f2e5"
	emptyLock(t, s, key, 0)

	stealsBefore := storeSteals.Load()
	timeoutsBefore := storeTimeouts.Load()
	s.gc()
	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatalf("waiter on a fresh empty lock: won=%v err=%v, want the deadline's degraded win", won, err)
	}
	release()
	if storeTimeouts.Load() != timeoutsBefore+1 {
		t.Error("waiter did not wait out its deadline")
	}
	if storeSteals.Load() != stealsBefore {
		t.Error("a fresh empty lock was stolen")
	}
	if fi, err := os.Stat(s.lockPath(key)); err != nil || fi.Size() != 0 {
		t.Fatalf("fresh empty lock disturbed: %v", err)
	}
}

// TestSweepCancellation: Options.Ctx cancellation propagates out of a
// sweep (the grid stops picking up tasks and lock waits abort).
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the sweep must do no simulation work
	opt := detOpt()
	opt.Ctx = ctx
	if _, err := Fig2(opt); !errors.Is(err, context.Canceled) {
		// runStartup wraps task errors with app/model context; the
		// chain must end in context.Canceled.
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// encodeTrailer appends a valid CRC-32C trailer to an arbitrary
// payload (test helper for trailing-garbage cases).
func encodeTrailer(payload []byte) []byte {
	return seal(append(make([]byte, 0, len(payload)+4), payload...))
}
