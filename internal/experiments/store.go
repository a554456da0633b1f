package experiments

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codesignvm/internal/codecache"
	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/metrics"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
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
	// runSchema versions the key derivation and record encoding; bump it
	// whenever vmm.Config, vmm.Result or the encoding change shape so
	// stale stores miss instead of misread. The config's textual %#v
	// form is hashed, so most Config changes invalidate keys on their
	// own; the version covers Result/encoding changes.
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

// storeGCDone gates the once-per-process-per-directory GC sweep. Keys
// are canonical absolute paths (canonicalStoreDir), never the raw
// Options.Store spelling: relative vs absolute (or trailing-slash)
// spellings of one directory must share a single gate, or two
// concurrent GC sweeps race over the same files.
var storeGCDone sync.Map // canonical dir -> *sync.Once

// canonicalStoreDir resolves a store-directory spelling to the one
// gate key all aliases of the directory share.
func canonicalStoreDir(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return filepath.Clean(dir)
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
		once, _ := storeGCDone.LoadOrStore(canonicalStoreDir(o.Store), new(sync.Once))
		once.(*sync.Once).Do(s.gc)
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

// fileKey derives the content-hash key of one simulation's record. The
// attribution-spec string and the timeline bit join it: neither changes
// the simulated cycles, but an observing result carries extra payload
// a plain request must not be served (and vice versa), so they key
// separately.
func (k runKey) fileKey() string {
	observe := k.attrib // spec keys hold no newline
	if k.timeline {
		observe += "\ntimeline"
	}
	return hashKey("v%d\n%#v\n%s\n%d\n%d\n%s\n", runSchema, k.cfg, k.app, k.scale, k.instrs, observe)
}

// hashKey derives a store key: 32 hex digits of the SHA-256 of the
// formatted identity. Every kind of key hashes runSchema behind a
// prefix of its own (run keys: none), so the kinds cannot collide.
func hashKey(format string, identity ...any) string {
	h := sha256.New()
	fmt.Fprintf(h, format, identity...)
	return hex.EncodeToString(h.Sum(nil))[:32]
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

// crcTable is the Castagnoli polynomial (same choice as iSCSI/ext4:
// hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// seal appends the little-endian CRC-32C trailer over everything before
// it. Any truncation, extension or bit flip of the file breaks it.
func seal(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, crcTable))
}

// unseal verifies a record's trailer and returns the payload it guards;
// decoders read nothing before it has passed.
func unseal(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("experiments: %s record too short (%d bytes)", magic, len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("experiments: %s record checksum mismatch (got %08x, want %08x)", magic, got, want)
	}
	return payload, nil
}

// encodeResult renders one run record: the CRUN2 magic and payload
// (writeResult), sealed.
func encodeResult(r *vmm.Result) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeResult(bw, r); err == nil {
		bw.Flush()
	}
	return seal(buf.Bytes())
}

// decodeResult verifies and decodes what encodeResult produced: the
// CRC trailer must match, the payload must decode, and the decoder
// must consume the payload exactly (one further read returns io.EOF) —
// a record truncated at a section boundary or with appended bytes is
// rejected even before the checksum existed.
func decodeResult(data []byte) (*vmm.Result, error) {
	payload, err := unseal(data, runMagic)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(bytes.NewReader(payload))
	res, err := readResult(br)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("experiments: trailing bytes after run record")
	}
	return res, nil
}

// Profile record (`CPRF1`), fixed length: the magic, the histogram's
// eight bucket counts, its eight dynamic shares as IEEE-754 bits, Total,
// DynTotal and the hot-instruction count — nineteen little-endian u64 —
// sealed.
const (
	profMagic     = "CPRF1"
	profBuckets   = 8
	profRecordLen = len(profMagic) + (2*profBuckets+3)*8 + 4
)

func encodeProfile(p appProfile) []byte {
	le := binary.LittleEndian
	rec := append(make([]byte, 0, profRecordLen), profMagic...)
	for _, n := range p.hist.Buckets {
		rec = le.AppendUint64(rec, n)
	}
	for _, f := range p.hist.DynFrac {
		rec = le.AppendUint64(rec, math.Float64bits(f))
	}
	for _, n := range []uint64{p.hist.Total, p.hist.DynTotal, p.hot} {
		rec = le.AppendUint64(rec, n)
	}
	return seal(rec)
}

// decodeProfile accepts exactly what encodeProfile wrote: the length,
// then the trailer, then the magic, and only then the fields.
func decodeProfile(data []byte) (appProfile, error) {
	if len(data) != profRecordLen {
		return appProfile{}, fmt.Errorf("experiments: profile record is %d bytes, want %d", len(data), profRecordLen)
	}
	payload, err := unseal(data, profMagic)
	if err != nil {
		return appProfile{}, err
	}
	if string(payload[:len(profMagic)]) != profMagic {
		return appProfile{}, fmt.Errorf("experiments: bad profile magic %q", payload[:len(profMagic)])
	}
	var w [2*profBuckets + 3]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(payload[len(profMagic)+8*i:])
	}
	hist := metrics.Histogram{
		Buckets:  append([]uint64(nil), w[:profBuckets]...),
		DynFrac:  make([]float64, profBuckets),
		Total:    w[2*profBuckets],
		DynTotal: w[2*profBuckets+1],
	}
	for i := range hist.DynFrac {
		hist.DynFrac[i] = math.Float64frombits(w[profBuckets+i])
	}
	return appProfile{hist: hist, hot: w[2*profBuckets+2]}, nil
}

// writeResult encodes one vmm.Result. Field order is fixed; floats are
// stored as IEEE-754 bits. Samples are the only variable-length part.
func writeResult(w *bufio.Writer, r *vmm.Result) error {
	if _, err := w.WriteString(runMagic); err != nil {
		return err
	}
	le := func(vs ...uint64) error {
		for _, v := range vs {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	fbits := func(fs ...float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	bool64 := uint64(0)
	if r.Halted {
		bool64 = 1
	}
	if err := le(uint64(r.Strategy), bool64, r.Instrs); err != nil {
		return err
	}
	if err := le(fbits(r.Cycles)...); err != nil {
		return err
	}
	if err := le(fbits(r.Cat[:]...)...); err != nil {
		return err
	}
	if err := le(r.BBTUops, r.BBTEntities, r.SBTUops, r.SBTEntities,
		r.BBTTranslations, r.SBTTranslations, r.BBTX86Translated, r.SBTX86Translated,
		r.XltInvocations, r.XltBusyCycles, r.Callouts,
		r.JTLBHits, r.JTLBMisses, r.ShadowEvictions,
		r.SBTInstrs, r.BBTInstrs, r.X86Instrs, r.InterpInstrs,
		r.RestoredTranslations, r.RestoredX86,
		uint64(r.BBTFlushes)<<32|uint64(r.SBTFlushes)); err != nil {
		return err
	}
	if err := le(fbits(r.X86ModeCycles)...); err != nil {
		return err
	}
	if err := le(uint64(len(r.Samples))); err != nil {
		return err
	}
	for i := range r.Samples {
		s := &r.Samples[i]
		if err := le(fbits(s.Cycles)...); err != nil {
			return err
		}
		if err := le(s.Instrs); err != nil {
			return err
		}
		if err := le(fbits(s.Cat[:]...)...); err != nil {
			return err
		}
		if err := le(fbits(s.XltBusy)...); err != nil {
			return err
		}
	}
	// Observability snapshot (schema v2): count, then per metric the
	// name/unit strings, kind, value bits, observation count and buckets.
	wstr := func(s string) error {
		if err := le(uint64(len(s))); err != nil {
			return err
		}
		_, err := w.WriteString(s)
		return err
	}
	if err := le(uint64(len(r.Metrics))); err != nil {
		return err
	}
	for i := range r.Metrics {
		m := &r.Metrics[i]
		if err := wstr(m.Name); err != nil {
			return err
		}
		if err := wstr(m.Unit); err != nil {
			return err
		}
		if err := wstr(m.Labels); err != nil {
			return err
		}
		if err := le(uint64(m.Kind), math.Float64bits(m.Value), m.Count, uint64(len(m.Buckets))); err != nil {
			return err
		}
		for _, b := range m.Buckets {
			if err := le(b.Le, b.Count); err != nil {
				return err
			}
		}
	}
	// Observation sections: a bit set saying which follow (schema v6;
	// v5 had the attribution bit alone), then each present section.
	// The attribution snapshot (schema v5): category cycles,
	// reconciliation totals, region-grid geometry, the non-empty regions
	// and the milestone phases. The timeline (schema v6): the slice
	// count, then each slice's fields in declaration order.
	var sections uint64
	if r.Attrib != nil {
		sections |= sectionAttrib
	}
	if r.Timeline != nil {
		sections |= sectionTimeline
	}
	if err := le(sections); err != nil {
		return err
	}
	if a := r.Attrib; a != nil {
		if err := le(fbits(a.Cat[:]...)...); err != nil {
			return err
		}
		if err := le(fbits(a.TotalCycles, a.Residual)...); err != nil {
			return err
		}
		if err := le(uint64(a.RegionBase), uint64(a.RegionShift), uint64(len(a.Regions))); err != nil {
			return err
		}
		for i := range a.Regions {
			rg := &a.Regions[i]
			if err := le(uint64(rg.Slot)); err != nil {
				return err
			}
			if err := le(fbits(rg.Cat[:]...)...); err != nil {
				return err
			}
		}
		if err := le(uint64(len(a.Phases))); err != nil {
			return err
		}
		for i := range a.Phases {
			ph := &a.Phases[i]
			if err := le(ph.Milestone, ph.Instrs, math.Float64bits(ph.Cycles)); err != nil {
				return err
			}
			if err := le(fbits(ph.Cat[:]...)...); err != nil {
				return err
			}
		}
	}
	if r.Timeline == nil {
		return nil
	}
	slices := r.Timeline.Slices()
	if err := le(uint64(len(slices))); err != nil {
		return err
	}
	for i := range slices {
		ts := &slices[i]
		if err := le(math.Float64bits(ts.EndCycles), ts.Instrs, ts.InterpInstrs, ts.BBTInstrs, ts.SBTInstrs, ts.X86Instrs,
			math.Float64bits(ts.VMMCycles), math.Float64bits(ts.XlateCycles), math.Float64bits(ts.EmuCycles),
			uint64(ts.BBTUsed), uint64(ts.SBTUsed)); err != nil {
			return err
		}
	}
	return nil
}

// The observation-section bits of a run record (schema v6).
const (
	sectionAttrib   = 1 << 0
	sectionTimeline = 1 << 1
)

// readResult decodes what writeResult wrote.
func readResult(br *bufio.Reader) (*vmm.Result, error) {
	magic := make([]byte, len(runMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != runMagic {
		return nil, fmt.Errorf("experiments: bad run-store magic %q", magic)
	}
	var scratch [8]byte
	le := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	lef := func() (float64, error) {
		v, err := le()
		return math.Float64frombits(v), err
	}
	r := &vmm.Result{}
	var err error
	read64 := func(dst *uint64) {
		if err == nil {
			*dst, err = le()
		}
	}
	readf := func(dst *float64) {
		if err == nil {
			*dst, err = lef()
		}
	}
	var strat, halted uint64
	read64(&strat)
	read64(&halted)
	read64(&r.Instrs)
	readf(&r.Cycles)
	for i := range r.Cat {
		readf(&r.Cat[i])
	}
	for _, dst := range []*uint64{
		&r.BBTUops, &r.BBTEntities, &r.SBTUops, &r.SBTEntities,
		&r.BBTTranslations, &r.SBTTranslations, &r.BBTX86Translated, &r.SBTX86Translated,
		&r.XltInvocations, &r.XltBusyCycles, &r.Callouts,
		&r.JTLBHits, &r.JTLBMisses, &r.ShadowEvictions,
		&r.SBTInstrs, &r.BBTInstrs, &r.X86Instrs, &r.InterpInstrs,
		&r.RestoredTranslations, &r.RestoredX86,
	} {
		read64(dst)
	}
	var flushes uint64
	read64(&flushes)
	r.BBTFlushes, r.SBTFlushes = uint32(flushes>>32), uint32(flushes)
	readf(&r.X86ModeCycles)
	var nSamples uint64
	read64(&nSamples)
	if err != nil {
		return nil, err
	}
	if nSamples > 1<<24 {
		return nil, fmt.Errorf("experiments: implausible sample count %d", nSamples)
	}
	r.Strategy = vmm.Strategy(strat)
	r.Halted = halted != 0
	r.Samples = make([]vmm.Sample, nSamples)
	for i := range r.Samples {
		s := &r.Samples[i]
		readf(&s.Cycles)
		read64(&s.Instrs)
		for j := range s.Cat {
			readf(&s.Cat[j])
		}
		readf(&s.XltBusy)
	}
	rstr := func() (string, error) {
		n, err := le()
		if err != nil {
			return "", err
		}
		if n > 1<<12 {
			return "", fmt.Errorf("experiments: implausible metric-string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var nMetrics uint64
	read64(&nMetrics)
	if err != nil {
		return nil, err
	}
	if nMetrics > 1<<16 {
		return nil, fmt.Errorf("experiments: implausible metric count %d", nMetrics)
	}
	// A zero count decodes to a nil snapshot, so a result persisted by an
	// uninstrumented run round-trips to exactly the in-memory original.
	for i := uint64(0); i < nMetrics; i++ {
		var m obs.Metric
		if m.Name, err = rstr(); err != nil {
			return nil, err
		}
		if m.Unit, err = rstr(); err != nil {
			return nil, err
		}
		if m.Labels, err = rstr(); err != nil {
			return nil, err
		}
		var kind, vbits, nBuckets uint64
		read64(&kind)
		read64(&vbits)
		read64(&m.Count)
		read64(&nBuckets)
		if err != nil {
			return nil, err
		}
		if nBuckets > 1<<12 {
			return nil, fmt.Errorf("experiments: implausible bucket count %d", nBuckets)
		}
		m.Kind = obs.Kind(kind)
		m.Value = math.Float64frombits(vbits)
		for j := uint64(0); j < nBuckets; j++ {
			var b obs.Bucket
			read64(&b.Le)
			read64(&b.Count)
			m.Buckets = append(m.Buckets, b)
		}
		r.Metrics = append(r.Metrics, m)
	}
	var sections uint64
	read64(&sections)
	if err != nil {
		return nil, err
	}
	if sections&^(sectionAttrib|sectionTimeline) != 0 {
		return nil, fmt.Errorf("experiments: bad section bits %#x", sections)
	}
	if sections&sectionAttrib != 0 {
		a := &attrib.Snapshot{}
		for i := range a.Cat {
			readf(&a.Cat[i])
		}
		readf(&a.TotalCycles)
		readf(&a.Residual)
		var base, shift, nRegions uint64
		read64(&base)
		read64(&shift)
		read64(&nRegions)
		if err != nil {
			return nil, err
		}
		if nRegions > 1<<20 {
			return nil, fmt.Errorf("experiments: implausible region count %d", nRegions)
		}
		a.RegionBase = uint32(base)
		a.RegionShift = uint8(shift)
		for i := uint64(0); i < nRegions; i++ {
			var slot uint64
			read64(&slot)
			rg := attrib.RegionCycles{Slot: int(slot)}
			for c := range rg.Cat {
				readf(&rg.Cat[c])
			}
			a.Regions = append(a.Regions, rg)
		}
		var nPhases uint64
		read64(&nPhases)
		if err != nil {
			return nil, err
		}
		if nPhases > 1<<16 {
			return nil, fmt.Errorf("experiments: implausible phase count %d", nPhases)
		}
		for i := uint64(0); i < nPhases; i++ {
			var ph attrib.Phase
			read64(&ph.Milestone)
			read64(&ph.Instrs)
			readf(&ph.Cycles)
			for c := range ph.Cat {
				readf(&ph.Cat[c])
			}
			a.Phases = append(a.Phases, ph)
		}
		r.Attrib = a
	}
	if sections&sectionTimeline != 0 {
		var nSlices uint64
		read64(&nSlices)
		if err != nil {
			return nil, err
		}
		if nSlices > obs.TimelineSlices {
			return nil, fmt.Errorf("experiments: implausible timeline slice count %d", nSlices)
		}
		slices := make([]obs.TimeSlice, nSlices)
		for i := range slices {
			ts := &slices[i]
			var bbtUsed, sbtUsed uint64
			readf(&ts.EndCycles)
			for _, dst := range []*uint64{&ts.Instrs, &ts.InterpInstrs, &ts.BBTInstrs, &ts.SBTInstrs, &ts.X86Instrs} {
				read64(dst)
			}
			readf(&ts.VMMCycles)
			readf(&ts.XlateCycles)
			readf(&ts.EmuCycles)
			read64(&bbtUsed)
			read64(&sbtUsed)
			ts.BBTUsed, ts.SBTUsed = uint32(bbtUsed), uint32(sbtUsed)
		}
		r.Timeline = obs.TimelineOf(slices)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}
