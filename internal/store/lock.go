package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"codesignvm/internal/obs"
)

// lockSeq disambiguates lock tokens minted by one process.
var lockSeq atomic.Uint64

// Acquire tries to become the single flight for key across processes.
// It returns won=true with a release func when this process should
// build the artifact (release is a no-op if the wait degraded),
// won=false after another process's record appeared at path (the
// caller re-reads the store), or err when the store's context was
// cancelled mid-wait. Every artifact kind shares the protocol; the
// record path is what waiters poll for.
func (s *Store) Acquire(key, path string) (release func(), won bool, err error) {
	if err := s.FS.MkdirAll(s.Dir, 0o755); err != nil {
		return func() {}, true, nil // can't lock: just build
	}
	lock := s.Path(key, ".lock")
	start := time.Now()
	deadline := start.Add(s.Tuning.WaitMax)
	wait := s.Tuning.PollMin
	defer func() {
		if s.Obs != nil {
			s.Obs.Proc.Histogram("store.lock_wait_ns", "ns", obs.BucketsPow2(1<<20, 16)).
				Observe(uint64(time.Since(start)))
		}
	}()
	for {
		rel, ok, fatal := s.tryLock(lock)
		if fatal || ok {
			return rel, true, nil
		}
		// Another process is building this key: wait for its record,
		// stealing the lock if its heartbeat goes stale (owner crashed).
		if st, serr := s.FS.Stat(lock); serr == nil && s.Tuning.stale(st) {
			if s.Steal(lock, key, st) {
				continue // corpse cleared; re-contend immediately
			}
		}
		if time.Now().After(deadline) {
			// Hard deadline: a peer that heartbeats but never publishes
			// (hung, or its store writes fail forever) must not wedge the
			// sweep. Give up on single-flight and build.
			if s.Obs != nil {
				s.Obs.Proc.Counter("store.lock_timeouts", "waits").Inc()
			}
			return func() {}, true, nil
		}
		select {
		case <-s.Ctx.Done():
			return nil, false, s.Ctx.Err()
		case <-time.After(wait):
		}
		if wait *= 2; wait > s.Tuning.PollMax {
			wait = s.Tuning.PollMax
		}
		if _, serr := s.FS.Stat(path); serr == nil {
			return nil, false, nil
		}
	}
}

// stale reports whether a lock's owner is presumed dead: its heartbeat
// has not refreshed the mtime for LockStale.
func (t Tuning) stale(lock os.FileInfo) bool {
	return time.Since(lock.ModTime()) > t.LockStale
}

// tryLock attempts to take the lock. The owner's token is written to a
// temp file, which is hard-linked to the lock path — the link fails
// with EEXIST while the lock is held — and then removed, so a lock never
// exists without its token: a process killed before the link leaves
// only the temp file, which GC collects. ok means the lock was taken
// (release stops the heartbeat and removes the lock if still owned);
// fatal means locking is impossible (read-only store, full disk, dead
// filesystem, no hard links) and the caller should build without it.
func (s *Store) tryLock(lock string) (release func(), ok, fatal bool) {
	// The token identifies this owner; release verifies it before
	// removing so a release after a (mistaken) steal cannot delete the
	// next owner's live lock.
	token := fmt.Sprintf("pid %d seq %d t %d\n", os.Getpid(), lockSeq.Add(1), time.Now().UnixNano())
	tmp, err := s.FS.CreateTemp(s.Dir, filepath.Base(lock)+".tmp*")
	if err != nil {
		return func() {}, false, true
	}
	_, err = io.WriteString(tmp, token)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.FS.Link(tmp.Name(), lock)
	}
	s.FS.Remove(tmp.Name())
	if os.IsExist(err) {
		return nil, false, false
	}
	if err != nil {
		return func() {}, false, true // unexpected lock failure: build
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // owner heartbeat: keep the lock visibly alive
		defer wg.Done()
		t := time.NewTicker(s.Tuning.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				if s.FS.Chtimes(lock, now, now) != nil {
					return // lock gone (stolen or store broken): stop touching
				}
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
		if data, rerr := s.FS.ReadFile(lock); rerr == nil && string(data) == token {
			s.FS.Remove(lock)
		}
	}, true, false
}

// Steal clears a stale lock via a marker-arbitrated rename, so of N
// waiters observing the same corpse exactly one acts. The marker name
// encodes the corpse's mtime (its incarnation): O_EXCL creation of the
// marker elects the stealer, a re-stat confirms the corpse is still
// the incarnation st describes (not a fresh lock that reused the path),
// and only then is the corpse renamed away and removed. Returns true
// when the path is clear for re-contention.
func (s *Store) Steal(lock, key string, st os.FileInfo) bool {
	marker := fmt.Sprintf("%s.steal.%d", lock, st.ModTime().UnixNano())
	mf, err := s.FS.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			// Another waiter owns this steal. If it crashed mid-steal the
			// marker itself goes stale; clear it so the corpse is
			// eventually collectable.
			if mst, serr := s.FS.Stat(marker); serr == nil && time.Since(mst.ModTime()) > s.Tuning.LockStale {
				s.FS.Remove(marker)
			}
		}
		return false
	}
	mf.Close()
	cur, serr := s.FS.Stat(lock)
	if serr != nil || !cur.ModTime().Equal(st.ModTime()) {
		// The corpse vanished (owner released: path clear) or was
		// replaced by a live lock (not ours to touch); either way this
		// incarnation is gone, so withdraw the marker.
		s.FS.Remove(marker)
		return serr != nil
	}
	grave := marker + ".lock"
	if s.FS.Rename(lock, grave) != nil {
		s.FS.Remove(marker)
		return false
	}
	s.FS.Remove(grave)
	s.FS.Remove(marker)
	if s.Obs != nil {
		s.Obs.Proc.Counter("store.lock_steals", "steals").Inc()
		s.Obs.Emit(obs.EvStoreSteal, key, 0, uint64(time.Since(st.ModTime())), 0, 0)
	}
	return true
}
