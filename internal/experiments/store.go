package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codesignvm/internal/codecache"
	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/obs"
	"codesignvm/internal/vmm"
)

// Persistent run store: the process-wide memoizations (runcache.go)
// spilled to disk, so a warm sweep in a *fresh process* is near-free.
// Three kinds of artifact live in it, each under a content-hash key:
// finished simulations (<hash>.run, keyed by schema version, normalized
// machine configuration, application, scale, instruction budget),
// translation snapshots (<hash>.ccvm, warmstart.go) and Fig. 3
// interpreter profiles (<hash>.prof, reports.go). All three go through
// one path — fetch below: read, else single-flight, build and publish.
// Records are CRC-guarded (`CRUN2`, `CPRF1`: a Castagnoli CRC-32 trailer
// over the whole payload plus an exact-length check reject truncated,
// bit-flipped or extended files; CCVM2 sections carry their own);
// corrupt entries are quarantined to a `.bad` sidecar and rebuilt.
//
// Concurrent processes single-flight through a <hash>.lock file
// (O_CREATE|O_EXCL) whose owner refreshes its mtime from a heartbeat
// goroutine; waiters poll with exponential backoff under a hard
// deadline and steal locks whose mtime goes stale (owner crashed)
// through a marker-arbitrated rename, so exactly one waiter wins a
// steal. docs/runstore.md specifies the full protocol. Store failures
// of any kind (read-only dir, full disk, corrupt or vanished files,
// hung peers) degrade to computing — persistence is an accelerator,
// never a correctness dependency; only a cancelled context propagates.
//
// All filesystem access goes through a faultfs.FS seam so the fault-
// injection suite (storefault_test.go) can simulate kill-mid-write,
// truncation, bit flips, ENOSPC and EROFS deterministically.

const (
	runMagic = "CRUN2"
	// runSchema versions the record encoding; bump it whenever
	// vmm.Result or the encoding change shape so stale stores miss
	// instead of misread. Keys hash vmm.Config's field names and kinds
	// (configShape), so a Config change invalidates keys on its own; the
	// version covers Result/encoding changes.
	// v2: appended observability metric snapshots (Result.Metrics).
	// v3: CRUN2 — CRC-32C trailer + trailing-EOF verification.
	// v4: warm-start — Result.RestoredTranslations/RestoredX86 appended
	//     and vmm.Config gained the WarmStart/Restore* fields (which
	//     change the hashed %#v form on their own).
	// v5: labeled metrics (Metric.Labels after Unit) and the trailing
	//     cycle-attribution section (Result.Attrib); keys additionally
	//     hash the attribution-spec string, so attributing and plain
	//     runs occupy distinct entries.
	// v6: the timeline section (Result.Timeline) after the attribution
	//     section; the old attribution flag became a section bit set,
	//     so a plain record is as long as at v5. Keys additionally hash
	//     the timeline bit.
	// v7: the code-cache flush counts (Result.BBTFlushes/SBTFlushes, one
	//     word after RestoredX86) and vmm.Config.SwitchPeriod.
	runSchema = 7
)

// storeTuning groups the lock-protocol and GC time/size constants so
// tests can shrink the timescales; defaultTuning holds the production
// values.
type storeTuning struct {
	// lockStale is how long a lock file's mtime may sit unrefreshed
	// before a waiter assumes the owner died and steals it. The owner's
	// heartbeat refreshes the mtime well inside this window, so live
	// owners are never stolen from, however long they simulate.
	lockStale time.Duration
	// heartbeat is the owner-side mtime refresh period, and how long a
	// lock may sit without its owner's token before it is stolen (stale).
	heartbeat time.Duration
	// pollMin/pollMax bound the waiter's exponential backoff between
	// checks for the owner's published result.
	pollMin, pollMax time.Duration
	// waitMax is the hard deadline on one lock wait: past it the waiter
	// stops trusting single-flight (hung but heartbeating peer, clock
	// trouble) and degrades to simulating without the lock.
	waitMax time.Duration
	// gcTmpAge is how old an orphaned .tmp* or .steal.* file must be
	// before GC collects it.
	gcTmpAge time.Duration
	// maxBytes caps the total size of the records, quarantined ones
	// included; GC evicts least-recently-used records (by access time,
	// maintained with an explicit touch on every hit so noatime mounts
	// behave) until the store fits. 0 = uncapped.
	maxBytes int64
}

var defaultTuning = storeTuning{
	lockStale: 10 * time.Minute,
	heartbeat: time.Minute,
	pollMin:   25 * time.Millisecond,
	pollMax:   time.Second,
	waitMax:   30 * time.Minute,
	gcTmpAge:  time.Hour,
}

// Store health counters, observable by tests and the overhead report
// without an observer attached (reads and writes race-free via
// atomics). The obs metrics mirror these per process.
var (
	storeHits        atomic.Uint64 // disk-store loads
	storeCorrupt     atomic.Uint64 // quarantined records
	storeSteals      atomic.Uint64 // stale locks stolen
	storeTimeouts    atomic.Uint64 // lock waits past waitMax (degraded)
	storeGCEvictions atomic.Uint64 // records evicted by the size cap
)

// lockSeq disambiguates lock tokens minted by one process.
var lockSeq atomic.Uint64

// runStore is one handle on a store directory: the directory, the
// filesystem seam, the tuning constants, and the observability hooks.
// Options.store builds it; the zero value is not usable.
type runStore struct {
	dir string
	fs  faultfs.FS
	tun storeTuning
	obs *obs.Observer
	ctx context.Context
}

// storeGCDone gates the once-per-process-per-directory GC sweep. The
// gates are keyed by canonical absolute path (canonicalStoreDir):
// relative vs absolute (or trailing-slash) spellings of one directory
// must share a single gate, or two concurrent GC sweeps race over the
// same files. Each spelling seen is entered too, pointing at its
// directory's gate, so a handle for a known spelling resolves nothing.
var storeGCDone sync.Map // dir spelling or canonical dir -> *sync.Once

// canonicalStoreDir resolves a store-directory spelling to the one
// gate key all aliases of the directory share.
func canonicalStoreDir(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return filepath.Clean(dir)
}

// gcGate returns the GC gate of a store directory spelling.
func gcGate(dir string) *sync.Once {
	if once, ok := storeGCDone.Load(dir); ok {
		return once.(*sync.Once)
	}
	once, _ := storeGCDone.LoadOrStore(canonicalStoreDir(dir), new(sync.Once))
	storeGCDone.Store(dir, once)
	return once.(*sync.Once)
}

// store builds the runStore handle for these options, or nil when
// persistence is disabled. The first handle per directory (with the
// default seams) runs one GC sweep.
func (o Options) store() *runStore {
	if o.Store == "" {
		return nil
	}
	s := &runStore{dir: o.Store, fs: o.storeFS, tun: defaultTuning, obs: o.Obs, ctx: o.ctx()}
	if o.storeTun != nil {
		s.tun = *o.storeTun
	}
	if o.StoreMaxBytes > 0 {
		s.tun.maxBytes = o.StoreMaxBytes
	}
	if s.fs == nil {
		s.fs = faultfs.Disk{}
		gcGate(o.Store).Do(s.gc)
	}
	return s
}

// ctx returns the options' cancellation context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// path places one of a key's files — record, lock, sidecar — in the
// store directory.
func (s *runStore) path(key, ext string) string { return filepath.Join(s.dir, key+ext) }
func (s *runStore) runPath(key string) string   { return s.path(key, ".run") }
func (s *runStore) lockPath(key string) string  { return s.path(key, ".lock") }

// artifact is one kind of record as the store's one lookup path (fetch)
// sees it. Run results, translation snapshots and interpreter profiles
// are its three typed clients.
type artifact[T any] struct {
	// key derives the content hash that names the record, its lock and
	// its quarantine sidecar. A func, like tag: neither is computed for
	// a run that never touches a store (or an observer).
	key func() string
	// ext is the record's file extension: ".run", ".ccvm" or ".prof".
	ext string
	// tag identifies the lookup on store-hit/store-miss events.
	tag func() string
	// decode verifies a record's bytes and only then reads them; an
	// error quarantines the record. encode is its inverse.
	decode func([]byte) (T, error)
	encode func(T) []byte
	// build computes the value when the store cannot supply it.
	build func() (T, error)
}

// fetch returns an artifact's value: read from the options' store when
// the record is there, otherwise computed by exactly one process — the
// miss contends for the key's lock (acquire), re-reads under it (the
// record may have been published between the miss and winning a just-
// freed lock, or by the owner this process waited for), builds,
// publishes and releases. Every store failure degrades to building;
// only build errors and a cancelled wait propagate. FreshRuns skips the
// reads and the lock but still publishes: a later process can reuse the
// work.
func fetch[T any](o Options, a artifact[T]) (T, error) {
	s := o.store()
	if s == nil {
		return a.build()
	}
	key := a.key()
	path := s.path(key, a.ext)
	build := func() (T, error) {
		v, err := a.build()
		if err == nil {
			s.publish(key, path, a.encode(v)) // best-effort
		}
		return v, err
	}
	if o.FreshRuns {
		return build()
	}
	if v, ok := readRecord(s, key, path, a.decode); ok {
		o.obsStore(true, a.tag)
		return v, nil
	}
	o.obsStore(false, a.tag)
	for attempt := 0; ; attempt++ {
		release, won, err := s.acquire(key, path)
		if err != nil {
			return *new(T), err // cancelled mid-wait
		}
		if !won {
			release = func() {}
		}
		if v, ok := readRecord(s, key, path, a.decode); ok {
			release()
			o.obsStore(true, a.tag)
			return v, nil
		}
		if !won && attempt < 2 {
			continue // the record the wait ended on vanished (cleaned store?): re-contend
		}
		// Won, or the record keeps disappearing under us (aggressive GC,
		// flaky storage) and the store is no longer trusted: build. The
		// lock goes even if build panics, or its heartbeat would hold it
		// for as long as the process lives.
		defer release()
		return build()
	}
}

// readRecord is the store's one read path: absent, unreadable or
// corrupt records are all a miss, so callers fall back to building.
// Corrupt records are quarantined to a .bad sidecar (never re-read,
// kept for diagnosis); hits are touched so the size-cap GC evicts
// least-recently-used records.
func readRecord[T any](s *runStore, key, path string, decode func([]byte) (T, error)) (T, bool) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return *new(T), false
	}
	v, err := decode(data)
	if err != nil {
		s.quarantine(key, path, len(data), err)
		return *new(T), false
	}
	storeHits.Add(1)
	now := time.Now()
	s.fs.Chtimes(path, now, now) // LRU touch; best-effort
	return v, true
}

// save persists a finished run result.
func (s *runStore) save(key string, res *vmm.Result) error {
	return s.publish(key, s.runPath(key), encodeResult(res))
}

// decodeSnapshot is the .ccvm record check. The snapshot's own CRC-32C
// sections are the integrity check; a stream that does not hold exactly
// the two sections vmm.SaveTranslations writes is rejected too (one
// truncated at a section boundary is section-wise valid).
func decodeSnapshot(data []byte) (*codecache.Snapshot, error) {
	snap, err := codecache.ParseSnapshot(data)
	if err != nil {
		return nil, err
	}
	if snap.Sections != 2 {
		return nil, fmt.Errorf("experiments: snapshot has %d sections, want 2", snap.Sections)
	}
	return snap, nil
}

// publish is the store's one writer: the record lands under a temp name
// and is renamed into place, so concurrent readers never observe a
// partial file. Errors are returned for logging but callers treat them
// as non-fatal; a failed write removes its temp file (best-effort — a
// killed process leaves an orphan for GC).
func (s *runStore) publish(key, path string, data []byte) error {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := s.fs.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	return s.fs.Rename(tmp.Name(), path)
}

// quarantine moves a corrupt record aside as <key>.bad so it is never
// re-read (every future lookup would otherwise re-fail on it) while
// preserving the bytes for diagnosis. Best-effort: when even the
// rename fails (read-only store) the entry simply stays a miss.
func (s *runStore) quarantine(key, path string, size int, reason error) {
	storeCorrupt.Add(1)
	s.fs.Rename(path, s.path(key, ".bad"))
	if s.obs != nil {
		s.obs.Proc.Counter("store.corrupt", "records").Inc()
		s.obs.Emit(obs.EvStoreCorrupt, key, 0, uint64(size), 0, 0)
	}
}

// acquire tries to become the single flight for key across processes.
// It returns won=true with a release func when this process should
// produce the artifact (release is a no-op if the wait degraded),
// won=false after another process's artifact appeared at the given
// path (the caller re-reads the store), or err when the context was
// cancelled mid-wait. Every artifact kind shares the protocol; the
// artifact path is what waiters poll for.
func (s *runStore) acquire(key, artifact string) (release func(), won bool, err error) {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return func() {}, true, nil // can't lock: just simulate
	}
	lock := s.lockPath(key)
	start := time.Now()
	deadline := start.Add(s.tun.waitMax)
	wait := s.tun.pollMin
	defer func() {
		if s.obs != nil {
			s.obs.Proc.Histogram("store.lock_wait_ns", "ns", obs.BucketsPow2(1<<20, 16)).
				Observe(uint64(time.Since(start)))
		}
	}()
	for {
		rel, ok, fatal := s.tryLock(lock)
		if fatal || ok {
			return rel, true, nil
		}
		// Another process is simulating this key: wait for its result,
		// stealing the lock if its heartbeat goes stale (owner crashed).
		if st, serr := s.fs.Stat(lock); serr == nil && s.tun.stale(st) {
			if s.steal(lock, key, st) {
				continue // corpse cleared; re-contend immediately
			}
		}
		if time.Now().After(deadline) {
			// Hard deadline: a peer that heartbeats but never publishes
			// (hung, or its store writes fail forever) must not wedge the
			// sweep. Give up on single-flight and simulate.
			storeTimeouts.Add(1)
			if s.obs != nil {
				s.obs.Proc.Counter("store.lock_timeouts", "waits").Inc()
			}
			return func() {}, true, nil
		}
		select {
		case <-s.ctx.Done():
			return nil, false, s.ctx.Err()
		case <-time.After(wait):
		}
		if wait *= 2; wait > s.tun.pollMax {
			wait = s.tun.pollMax
		}
		if _, serr := s.fs.Stat(artifact); serr == nil {
			return nil, false, nil
		}
	}
}

// stale reports whether a lock's owner is presumed dead: its heartbeat
// has not refreshed the mtime for lockStale, or the lock is still empty
// one heartbeat after it was created. A live owner writes its token
// microseconds after creating the file (and withdraws the lock when the
// write fails), so an empty lock that old is a process killed in between.
func (t storeTuning) stale(lock os.FileInfo) bool {
	age := time.Since(lock.ModTime())
	return age > t.lockStale || (lock.Size() == 0 && age > t.heartbeat)
}

// tryLock attempts the O_CREATE|O_EXCL lock creation. ok means the
// lock was taken (release stops the heartbeat and removes the lock if
// still owned); fatal means locking is impossible (read-only store,
// dead filesystem) and the caller should simulate without it.
func (s *runStore) tryLock(lock string) (release func(), ok, fatal bool) {
	f, err := s.fs.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, false, false
		}
		return func() {}, false, true // unexpected lock failure: simulate
	}
	// The token identifies this owner; release verifies it before
	// removing so a release after a (mistaken) steal cannot delete the
	// next owner's live lock.
	token := fmt.Sprintf("pid %d seq %d t %d\n", os.Getpid(), lockSeq.Add(1), time.Now().UnixNano())
	_, werr := io.WriteString(f, token)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// Half-written token: our own release could not verify it.
		// Withdraw the lock (best-effort) and simulate unprotected.
		s.fs.Remove(lock)
		return func() {}, false, true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // owner heartbeat: keep the lock visibly alive
		defer wg.Done()
		t := time.NewTicker(s.tun.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				if s.fs.Chtimes(lock, now, now) != nil {
					return // lock gone (stolen or store broken): stop touching
				}
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
		if data, rerr := s.fs.ReadFile(lock); rerr == nil && string(data) == token {
			s.fs.Remove(lock)
		}
	}, true, false
}

// steal clears a stale lock via a marker-arbitrated rename, so of N
// waiters observing the same corpse exactly one acts. The marker name
// encodes the corpse's mtime (its incarnation): O_EXCL creation of the
// marker elects the stealer, a re-stat confirms the corpse is still
// the incarnation we marked (not a fresh lock that reused the path),
// and only then is the corpse renamed away and removed. Returns true
// when the path is clear for re-contention.
func (s *runStore) steal(lock, key string, st os.FileInfo) bool {
	marker := fmt.Sprintf("%s.steal.%d", lock, st.ModTime().UnixNano())
	mf, err := s.fs.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			// Another waiter owns this steal. If it crashed mid-steal the
			// marker itself goes stale; clear it so the corpse is
			// eventually collectable.
			if mst, serr := s.fs.Stat(marker); serr == nil && time.Since(mst.ModTime()) > s.tun.lockStale {
				s.fs.Remove(marker)
			}
		}
		return false
	}
	mf.Close()
	cur, serr := s.fs.Stat(lock)
	if serr != nil || !cur.ModTime().Equal(st.ModTime()) {
		// The corpse vanished (owner released: path clear) or was
		// replaced by a live lock (not ours to touch); either way this
		// incarnation is gone, so withdraw the marker.
		s.fs.Remove(marker)
		return serr != nil
	}
	grave := marker + ".lock"
	if s.fs.Rename(lock, grave) != nil {
		s.fs.Remove(marker)
		return false
	}
	s.fs.Remove(grave)
	s.fs.Remove(marker)
	storeSteals.Add(1)
	if s.obs != nil {
		s.obs.Proc.Counter("store.lock_steals", "steals").Inc()
		s.obs.Emit(obs.EvStoreSteal, key, 0, uint64(time.Since(st.ModTime())), 0, 0)
	}
	return true
}

// gc sweeps the store directory: orphaned temp files and steal debris
// past gcTmpAge are removed, stale locks are stolen (same arbitration
// as waiters use), and when a size cap is set, least-recently-used
// record *groups* are evicted until the store fits. One sweep runs per
// process per directory, at first use; it is advisory and every step
// is best-effort.
//
// Eviction is per key, never per file: a key's record (.run, .ccvm or
// .prof) and its .bad quarantine leave or stay together, so GC can
// never orphan a sibling. A key whose .lock is currently live (not
// stale: a heartbeating owner) is skipped entirely: GC must not delete a record out from under an
// in-flight writer or a waiter about to load it.
func (s *runStore) gc() {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	type group struct {
		key   string
		paths []string
		sizes []int64
		total int64
		atime time.Time // newest member access time: one hot file keeps its siblings
	}
	groups := map[string]*group{}
	live := map[string]bool{} // keys with a live (non-stale) lock
	var total int64
	removed, evicted := 0, 0
	now := time.Now()
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		path := filepath.Join(s.dir, name)
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		age := now.Sub(fi.ModTime())
		switch {
		case strings.Contains(name, ".tmp"):
			// A crashed writer's partial record: never renamed into
			// place, so never read — pure garbage once old enough.
			if age > s.tun.gcTmpAge {
				if s.fs.Remove(path) == nil {
					removed++
				}
			}
		case strings.Contains(name, ".steal."):
			// Debris from a stealer that crashed between marker and
			// rename (or a renamed grave it never removed).
			if age > s.tun.gcTmpAge {
				if s.fs.Remove(path) == nil {
					removed++
				}
			}
		case strings.HasSuffix(name, ".lock"):
			key := strings.TrimSuffix(name, ".lock")
			if s.tun.stale(fi) {
				if s.steal(path, key, fi) {
					removed++
				}
			} else {
				live[key] = true
			}
		case strings.HasSuffix(name, ".run") || strings.HasSuffix(name, ".bad") ||
			strings.HasSuffix(name, ".ccvm") || strings.HasSuffix(name, ".prof"):
			key := name[:strings.LastIndexByte(name, '.')]
			g := groups[key]
			if g == nil {
				g = &group{key: key}
				groups[key] = g
			}
			g.paths = append(g.paths, path)
			g.sizes = append(g.sizes, fi.Size())
			g.total += fi.Size()
			if fi.ModTime().After(g.atime) {
				g.atime = fi.ModTime()
			}
			total += fi.Size()
		}
	}
	if s.tun.maxBytes > 0 && total > s.tun.maxBytes {
		// Evict whole key groups by access time (maintained by load's
		// explicit touch, so this is LRU even on noatime mounts),
		// oldest group first; ties break on key for determinism.
		ordered := make([]*group, 0, len(groups))
		for _, g := range groups {
			ordered = append(ordered, g)
		}
		sort.Slice(ordered, func(i, j int) bool {
			if !ordered[i].atime.Equal(ordered[j].atime) {
				return ordered[i].atime.Before(ordered[j].atime)
			}
			return ordered[i].key < ordered[j].key
		})
		for _, g := range ordered {
			if total <= s.tun.maxBytes {
				break
			}
			if live[g.key] {
				continue // in-flight key: never evict under a live lock
			}
			for i, p := range g.paths {
				if s.fs.Remove(p) == nil {
					total -= g.sizes[i]
					evicted++
				}
			}
		}
		storeGCEvictions.Add(uint64(evicted))
	}
	if s.obs != nil && (removed > 0 || evicted > 0) {
		s.obs.Proc.Counter("store.gc_evictions", "files").Add(uint64(evicted))
		s.obs.Emit(obs.EvStoreGC, filepath.Base(s.dir), 0, uint64(removed), uint64(evicted), 0)
	}
}
