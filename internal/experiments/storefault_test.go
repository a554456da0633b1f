package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"codesignvm/internal/machine"
	"codesignvm/internal/store"
	"codesignvm/internal/store/faultfs"
	"codesignvm/internal/vmm"
)

// faultStore builds a test store handle (testStore) whose filesystem is
// an injector with the given fault table.
func faultStore(t *testing.T, faults ...*faultfs.Fault) (*store.Store, *faultfs.Injector) {
	t.Helper()
	s := testStore(t)
	in := faultfs.NewInjector(s.FS, faults...)
	s.FS = in
	return s, in
}

// sealedRecords are the store's two CRC-sealed record formats as the
// corruption, write-fault and GC cases below see them: a golden record,
// where it lives, and whether the read path serves it.
var sealedRecords = []struct {
	name, ext string
	golden    func() []byte
	served    func(s *store.Store, key string) bool
}{
	{"run", ".run", func() []byte { return encodeResult(sampleResult()) },
		func(s *store.Store, key string) bool {
			res, err := load(s, key)
			return res != nil || err != nil
		}},
	{"prof", ".prof", func() []byte { return encodeProfile(sampleProfile()) },
		func(s *store.Store, key string) bool {
			_, ok := store.Read(s, key, profPath(s, key), decodeProfile)
			return ok
		}},
}

// TestRunStoreCorruptionEveryTruncation: a golden record truncated at
// EVERY byte offset must read as a miss and be quarantined — no offset
// may decode, panic or return a wrong result.
func TestRunStoreCorruptionEveryTruncation(t *testing.T) {
	for _, rec := range sealedRecords {
		t.Run(rec.name, func(t *testing.T) {
			s := testStore(t)
			key := "truncate"
			path := s.Path(key, rec.ext)
			golden := rec.golden()

			for n := 0; n < len(golden); n++ {
				if err := os.WriteFile(path, golden[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				if rec.served(s, key) {
					t.Fatalf("truncation at %d/%d bytes was served", n, len(golden))
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("truncation at %d bytes: corrupt record not quarantined", n)
				}
				// Quarantine leaves a .bad sidecar; clear it so the next
				// iteration's rename target is free.
				os.Remove(filepath.Join(s.Dir, key+".bad"))
			}

			// The untruncated record still decodes (the loop did not damage
			// the decoder's state or the store).
			if err := os.WriteFile(path, golden, 0o644); err != nil {
				t.Fatal(err)
			}
			if !rec.served(s, key) {
				t.Fatal("golden record after sweep: not served")
			}
		})
	}
}

// TestRunStoreCorruptionEveryBitFlipStride: single-bit flips across the
// record (every 7th bit, covering every byte position over successive
// primes' worth of offsets) must all be rejected by the CRC trailer.
func TestRunStoreCorruptionEveryBitFlipStride(t *testing.T) {
	for _, rec := range sealedRecords {
		t.Run(rec.name, func(t *testing.T) {
			s := testStore(t)
			key := "bitflip1"
			golden := rec.golden()

			bits := int64(len(golden)) * 8
			for bit := int64(0); bit < bits; bit += 7 {
				flipped := append([]byte(nil), golden...)
				flipped[bit/8] ^= 1 << (bit % 8)
				if err := os.WriteFile(s.Path(key, rec.ext), flipped, 0o644); err != nil {
					t.Fatal(err)
				}
				if rec.served(s, key) {
					t.Fatalf("bit flip at %d was served", bit)
				}
				os.Remove(filepath.Join(s.Dir, key+".bad"))
			}
		})
	}
}

// TestRunStoreBitFlipViaInjector: the same property end-to-end through
// the faultfs read path — a valid on-disk record whose *read* is
// corrupted must quarantine and miss, and the next (clean) read of the
// re-saved record must hit.
func TestRunStoreBitFlipViaInjector(t *testing.T) {
	s, _ := faultStore(t, &faultfs.Fault{Op: faultfs.OpRead, Path: ".run", FlipBit: 130})
	key := "f11pread"
	if err := save(s, key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	before := counter(s.Obs, "store.corrupt")
	if res, err := load(s, key); res != nil || err != nil {
		t.Fatalf("flipped read: want (nil, nil), got (%v, %v)", res, err)
	}
	if counter(s.Obs, "store.corrupt") != before+1 {
		t.Fatal("flipped read did not count as corrupt")
	}
	// The record was quarantined (the on-disk bytes are fine, but the
	// store cannot tell a bad read from a bad record: either way the
	// entry must stop serving). A re-save hits cleanly.
	if err := save(s, key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if res, err := load(s, key); res == nil || err != nil {
		t.Fatalf("clean re-read: want result, got (%v, %v)", res, err)
	}
}

// TestRunStoreSaveENOSPC: a full disk mid-write fails the save, leaves
// no partial .run record, and removes its temp file.
func TestRunStoreSaveENOSPC(t *testing.T) {
	for _, rec := range sealedRecords {
		t.Run(rec.name, func(t *testing.T) {
			s, _ := faultStore(t, &faultfs.Fault{
				Op: faultfs.OpWrite, Path: ".tmp", AfterBytes: 64, Err: syscall.ENOSPC,
			})
			key := "n05pace"
			if err := s.Publish(s.Path(key, rec.ext), rec.golden()); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("want ENOSPC from publish, got %v", err)
			}
			if _, err := os.Stat(s.Path(key, rec.ext)); !os.IsNotExist(err) {
				t.Fatal("a failed publish left a record")
			}
			ents, err := os.ReadDir(s.Dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.Contains(e.Name(), ".tmp") {
					t.Fatalf("failed publish left temp file %s", e.Name())
				}
			}
		})
	}
}

// TestRunStoreReadOnlyStore: EROFS on every create degrades cleanly —
// saves fail without panicking, and acquire falls back to simulating
// (won=true) because locking is impossible.
func TestRunStoreReadOnlyStore(t *testing.T) {
	s, _ := faultStore(t,
		&faultfs.Fault{Op: faultfs.OpCreate, Err: syscall.EROFS},
		&faultfs.Fault{Op: faultfs.OpCreate, N: 1, Err: syscall.EROFS}, // second create too
	)
	key := "r0f5"
	if err := save(s, key, sampleResult()); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("want EROFS from save, got %v", err)
	}
	release, won, err := s.Acquire(key, runPath(s, key))
	if err != nil || !won {
		t.Fatalf("read-only store must degrade to simulating, got (won=%v err=%v)", won, err)
	}
	release() // no-op; must not panic
	if _, serr := os.Stat(lockPath(s, key)); !os.IsNotExist(serr) {
		t.Fatal("degraded acquire created a lock file on a read-only store")
	}
}

// TestRunStoreMkdirFailure: an uncreatable store directory degrades the
// same way — save errors, acquire simulates unprotected.
func TestRunStoreMkdirFailure(t *testing.T) {
	s, _ := faultStore(t,
		&faultfs.Fault{Op: faultfs.OpMkdir, Err: syscall.EROFS},
		&faultfs.Fault{Op: faultfs.OpMkdir, N: 1, Err: syscall.EROFS},
	)
	if err := save(s, "mkd1r", sampleResult()); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("want EROFS from save, got %v", err)
	}
	release, won, err := s.Acquire("mkd1r", runPath(s, "mkd1r"))
	if err != nil || !won {
		t.Fatalf("unwritable dir must degrade to simulating, got (won=%v err=%v)", won, err)
	}
	release()
}

// TestRunStoreKillMidWrite: a writer killed mid-save leaves an orphaned
// temp file (it could not clean up) but never a readable partial
// record; GC later collects the orphan once it ages past gcTmpAge.
func TestRunStoreKillMidWrite(t *testing.T) {
	for _, rec := range sealedRecords {
		t.Run(rec.name, func(t *testing.T) {
			s, in := faultStore(t, &faultfs.Fault{
				Op: faultfs.OpWrite, Path: ".tmp", AfterBytes: 100, Kill: true,
			})
			key := "k9mid"
			if err := s.Publish(s.Path(key, rec.ext), rec.golden()); !errors.Is(err, faultfs.ErrKilled) {
				t.Fatalf("want ErrKilled from publish, got %v", err)
			}
			if !in.Dead() {
				t.Fatal("injector should be dead after the kill")
			}
			if _, err := os.Stat(s.Path(key, rec.ext)); !os.IsNotExist(err) {
				t.Fatal("killed writer published a record")
			}
			var orphan string
			ents, err := os.ReadDir(s.Dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.Contains(e.Name(), ".tmp") {
					orphan = filepath.Join(s.Dir, e.Name())
				}
			}
			if orphan == "" {
				t.Fatal("killed writer left no orphan temp file (fault did not take the write path)")
			}

			// A later, healthy process never reads the orphan (it was never
			// renamed into place)…
			s2 := &store.Store{Dir: s.Dir, FS: faultfs.Disk{}, Tuning: testTuning(), Ctx: context.Background()}
			if rec.served(s2, key) {
				t.Fatal("partial temp file served a value")
			}
			// …and its GC collects the debris once it is old enough.
			old := time.Now().Add(-2 * s2.Tuning.GCTmpAge)
			if err := os.Chtimes(orphan, old, old); err != nil {
				t.Fatal(err)
			}
			s2.GC()
			if _, err := os.Stat(orphan); !os.IsNotExist(err) {
				t.Fatal("GC left the aged orphan temp file")
			}
		})
	}
}

// TestRunStoreFaultsDegradeToSimulation: end-to-end through fetch — under
// every injected store fault a run must still produce a result, and an
// interpreter profile a histogram, byte-identical to the storeless
// computation. Persistence is an accelerator, never a correctness
// dependency.
func TestRunStoreFaultsDegradeToSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	cfg := opt.configFor(machine.VMSoft)
	const hotThr = 8000

	// The two artifact kinds with a sealed record: what computes one
	// through the store, where a valid record of it goes, and the read
	// fault that corrupts it. (Snapshots: TestWarmSnapshotCorruptionDegrades.)
	kinds := []struct {
		prefix, ext string
		compute     func(o Options) (any, error)
		record      func(o Options, v any) (key string, data []byte)
	}{
		{"", ".run",
			func(o Options) (any, error) { return o.runApp(cfg, "Word", o.ShortInstrs) },
			func(o Options, v any) (string, []byte) {
				return (runKey{cfg, "Word", o.Scale, o.ShortInstrs, "", false}).fileKey(), encodeResult(v.(*vmm.Result))
			}},
		{"prof-", ".prof",
			func(o Options) (any, error) { return o.profile("Word", hotThr) },
			func(o Options, v any) (string, []byte) {
				return profKey{"Word", o.Scale, o.ShortInstrs, hotThr}.fileKey(), encodeProfile(v.(appProfile))
			}},
	}

	tun := testTuning()
	cases := []struct {
		name   string
		faults func(ext string) []*faultfs.Fault
	}{
		{"enospc-on-save", func(ext string) []*faultfs.Fault {
			return []*faultfs.Fault{
				{Op: faultfs.OpWrite, Path: ext + ".tmp", AfterBytes: 32, Err: syscall.ENOSPC}}
		}},
		{"readonly-store", func(string) []*faultfs.Fault {
			return []*faultfs.Fault{
				{Op: faultfs.OpMkdir, Err: syscall.EROFS},
				{Op: faultfs.OpMkdir, Err: syscall.EROFS},
				{Op: faultfs.OpCreate, Err: syscall.EROFS},
				{Op: faultfs.OpCreate, Err: syscall.EROFS}}
		}},
		{"kill-mid-write", func(ext string) []*faultfs.Fault {
			return []*faultfs.Fault{
				{Op: faultfs.OpWrite, Path: ext + ".tmp", AfterBytes: 100, Kill: true}}
		}},
		{"corrupt-read", func(ext string) []*faultfs.Fault {
			return []*faultfs.Fault{
				{Op: faultfs.OpRead, Path: ext, FlipBit: 200}}
		}},
	}
	for _, kind := range kinds {
		// Reference: no store at all.
		ResetRunCacheForTest()
		want, err := kind.compute(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			t.Run(kind.prefix+tc.name, func(t *testing.T) {
				ResetRunCacheForTest()
				fopt := opt
				fopt.Store = t.TempDir()
				in := faultfs.NewInjector(faultfs.Disk{}, tc.faults(kind.ext)...)
				fopt.storeTest = func(s *store.Store) { s.FS, s.Tuning = in, tun }
				w := watchStore(&fopt)
				var key string
				if tc.name == "corrupt-read" {
					// Pre-populate a valid record so the faulted read has
					// something to corrupt.
					pre := fopt
					pre.storeTest = withTuning(tun)
					var data []byte
					key, data = kind.record(fopt, want)
					if err := pre.store().Publish(pre.store().Path(key, kind.ext), data); err != nil {
						t.Fatal(err)
					}
				}
				got, err := kind.compute(fopt)
				if err != nil {
					t.Fatalf("store fault leaked into the sweep: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("value under store faults differs from the storeless computation")
				}
				if tc.name != "corrupt-read" {
					return
				}
				// The damaged record was never read as a value: it was
				// quarantined, and the recomputed one republished over it.
				if n := counter(w, "store.corrupt"); n != 1 {
					t.Errorf("want exactly 1 quarantined record, got %d", n)
				}
				if _, err := os.Stat(filepath.Join(fopt.Store, key+".bad")); err != nil {
					t.Errorf("corrupt record not quarantined to .bad: %v", err)
				}
				if _, err := os.Stat(filepath.Join(fopt.Store, key+kind.ext)); err != nil {
					t.Errorf("recomputed record not republished: %v", err)
				}
			})
		}
	}
}

// TestRunStoreGCSweep: the once-per-process sweep removes aged debris
// (orphan temps, steal markers), steals stale locks, and — with a size
// cap — evicts least-recently-used records until the store fits,
// keeping the freshest.
func TestRunStoreGCSweep(t *testing.T) {
	s := testStore(t)
	rec := encodeResult(sampleResult())
	old := time.Now().Add(-10 * s.Tuning.GCTmpAge)
	older := time.Now().Add(-20 * s.Tuning.GCTmpAge)

	mk := func(name string, mtime time.Time, data []byte) string {
		t.Helper()
		path := filepath.Join(s.Dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		return path
	}

	oldTmp := mk("aaa.tmp123", old, []byte("partial"))
	freshTmp := mk("bbb.tmp456", time.Now(), []byte("in flight"))
	oldMarker := mk("ccc.lock.steal.42", old, nil)
	staleLock := mk("ddd.lock", old, []byte("corpse\n"))
	lruRun := mk("evict1.run", older, rec)
	midRun := mk("evict2.run", old, rec)
	lruProf := mk("evict3.prof", older, encodeProfile(sampleProfile()))
	hotRun := mk("keep.run", time.Now(), rec)

	// Cap so only one record fits.
	s.Tuning.MaxBytes = int64(len(rec)) + 16
	s.GC()

	for _, gone := range []string{oldTmp, oldMarker, staleLock, lruRun, midRun, lruProf} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("GC left %s behind", filepath.Base(gone))
		}
	}
	for _, kept := range []string{freshTmp, hotRun} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("GC removed %s (should keep): %v", filepath.Base(kept), err)
		}
	}
	if got := counter(s.Obs, "store.gc_evictions"); got != 3 {
		t.Errorf("want 3 evictions counted, got %d", got)
	}
}

// TestRunStoreGCPairedEviction: the size cap evicts whole key groups —
// a run record leaves together with its sibling snapshot and unit
// marker, so GC can never orphan a .ccvm whose .run is gone (or vice
// versa). One hot member protects the whole group.
func TestRunStoreGCPairedEviction(t *testing.T) {
	s := testStore(t)
	rec := encodeResult(sampleResult())
	older := time.Now().Add(-20 * s.Tuning.GCTmpAge)

	mk := func(name string, mtime time.Time, data []byte) string {
		t.Helper()
		path := filepath.Join(s.Dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Cold group: record + snapshot + profile, all stale.
	coldRun := mk("cold.run", older, rec)
	coldSnap := mk("cold.ccvm", older, []byte("snapshot payload")) // sibling artifact
	coldProf := mk("cold.prof", older, encodeProfile(sampleProfile()))
	// Hot group: stale record whose snapshot was touched just now — the
	// fresh member must keep its stale sibling alive (group atime is the
	// newest member's).
	hotRun := mk("hot.run", older, rec)
	hotSnap := mk("hot.ccvm", time.Now(), []byte("snapshot payload"))
	// A quarantined profile whose recomputed record is in use: the fresh
	// .prof keeps its stale .bad sidecar.
	hotBad := mk("warm.bad", older, []byte("damaged profile"))
	hotProf := mk("warm.prof", time.Now(), encodeProfile(sampleProfile()))

	// Cap fits the two hot groups only.
	s.Tuning.MaxBytes = int64(len(rec) + 32 + profRecordLen + 32)
	s.GC()

	for _, gone := range []string{coldRun, coldSnap, coldProf} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("GC left %s: the cold group must be evicted whole", filepath.Base(gone))
		}
	}
	for _, kept := range []string{hotRun, hotSnap, hotBad, hotProf} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("GC evicted %s: one fresh member must keep its group: %v", filepath.Base(kept), err)
		}
	}
}

// TestRunStoreGCSkipsLockedKeys: a key whose lock is live (heartbeat
// mtime inside the staleness window) is never evicted, no matter the
// size pressure; once the lock goes stale, the same sweep steals it
// and the group becomes evictable.
func TestRunStoreGCSkipsLockedKeys(t *testing.T) {
	s := testStore(t)
	rec := encodeResult(sampleResult())
	older := time.Now().Add(-20 * s.Tuning.GCTmpAge)

	run := filepath.Join(s.Dir, "busy.run")
	snap := filepath.Join(s.Dir, "busy.ccvm")
	prof := filepath.Join(s.Dir, "busy.prof")
	lock := filepath.Join(s.Dir, "busy.lock")
	for _, f := range []struct {
		path string
		data []byte
	}{{run, rec}, {snap, []byte("snapshot payload")}, {prof, encodeProfile(sampleProfile())}} {
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(f.path, older, older); err != nil {
			t.Fatal(err)
		}
	}
	// Live lock: an in-flight writer/reader owns this key right now.
	if err := os.WriteFile(lock, []byte("pid 1 seq 1 t 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s.Tuning.MaxBytes = 1 // everything is over budget
	s.GC()
	for _, kept := range []string{run, snap, prof} {
		if _, err := os.Stat(kept); err != nil {
			t.Fatalf("GC evicted %s out from under a live lock: %v", filepath.Base(kept), err)
		}
	}

	// The owner dies: its heartbeat stops and the lock ages out. Now
	// the sweep reclaims everything — lock and group.
	stale := time.Now().Add(-2 * s.Tuning.LockStale)
	if err := os.Chtimes(lock, stale, stale); err != nil {
		t.Fatal(err)
	}
	s.GC()
	for _, gone := range []string{run, snap, prof, lock} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("GC left %s after the lock went stale", filepath.Base(gone))
		}
	}
}

// TestRunStoreGCGateAliases: the once-per-process GC gate keys on the
// canonical absolute path, so differently spelled paths of one
// directory share a single sweep instead of racing two.
func TestRunStoreGCGateAliases(t *testing.T) {
	dir := t.TempDir()
	seed := func() string {
		t.Helper()
		debris := filepath.Join(dir, "zzz.tmp1")
		if err := os.WriteFile(debris, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-2 * store.DefaultTuning.GCTmpAge)
		if err := os.Chtimes(debris, old, old); err != nil {
			t.Fatal(err)
		}
		return debris
	}

	debris := seed()
	Options{Store: dir}.store()
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("first store() did not sweep")
	}

	// Aliased spellings of the same directory: trailing slash and a
	// redundant "." component. Neither may sweep again.
	debris = seed()
	for _, alias := range []string{dir + string(filepath.Separator), filepath.Join(dir, ".") + string(filepath.Separator)} {
		Options{Store: alias}.store()
		if _, err := os.Stat(debris); err != nil {
			t.Fatalf("aliased spelling %q ran a second GC sweep", alias)
		}
	}
}

// TestRunStoreGCRunsOncePerDir: Options.store() triggers exactly one GC
// sweep per directory per process (store.Store.GCOnce), and only with the
// default filesystem seam.
func TestRunStoreGCRunsOncePerDir(t *testing.T) {
	dir := t.TempDir()
	// Debris old enough for the default tuning's gcTmpAge.
	debris := filepath.Join(dir, "zzz.tmp1")
	if err := os.WriteFile(debris, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * store.DefaultTuning.GCTmpAge)
	if err := os.Chtimes(debris, old, old); err != nil {
		t.Fatal(err)
	}

	opt := Options{Store: dir}
	if s := opt.store(); s == nil {
		t.Fatal("store() returned nil with Store set")
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("first store() did not run the GC sweep")
	}

	// Re-seed debris: the second handle must NOT sweep again.
	if err := os.WriteFile(debris, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(debris, old, old); err != nil {
		t.Fatal(err)
	}
	opt.store()
	if _, err := os.Stat(debris); err != nil {
		t.Fatal("second store() swept again (GC must be once per process per dir)")
	}
}

// TestRunStoreStoreMaxBytesOption: the public StoreMaxBytes knob feeds
// the GC size cap through Options.store().
func TestRunStoreStoreMaxBytesOption(t *testing.T) {
	opt := Options{Store: t.TempDir(), StoreMaxBytes: 4096}
	s := opt.store()
	if s == nil || s.Tuning.MaxBytes != 4096 {
		t.Fatalf("StoreMaxBytes not plumbed into tuning: %+v", s)
	}
}
