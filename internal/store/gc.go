package store

import (
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"codesignvm/internal/obs"
)

// gcDone gates the once-per-process-per-directory GC sweep. The gates
// are keyed by canonical absolute path: relative vs absolute (or
// trailing-slash) spellings of one directory must share a single gate,
// or two concurrent GC sweeps race over the same files. Each spelling
// seen is entered too, pointing at its directory's gate, so a handle
// for a known spelling resolves nothing.
var gcDone sync.Map // dir spelling or canonical dir -> *sync.Once

// GCOnce runs GC if no handle on the store's directory has run it yet
// in this process.
func (s *Store) GCOnce() {
	once, ok := gcDone.Load(s.Dir)
	if !ok {
		canon, err := filepath.Abs(s.Dir)
		if err != nil {
			canon = filepath.Clean(s.Dir)
		}
		once, _ = gcDone.LoadOrStore(canon, new(sync.Once))
		gcDone.Store(s.Dir, once)
	}
	once.(*sync.Once).Do(s.GC)
}

// GC sweeps the store directory: orphaned temp files and steal debris
// past GCTmpAge are removed, stale locks are stolen (same arbitration
// as waiters use), and when a size cap is set, least-recently-used
// record *groups* are evicted until the store fits. It is advisory and
// every step is best-effort.
//
// Eviction is per key, never per file: every record of a key (its
// extensions) and its .bad quarantine leave or stay together, so GC
// can never orphan a sibling. A key whose .lock is currently live (not
// stale: a heartbeating owner) is skipped entirely: GC must not delete
// a record out from under an in-flight writer or a waiter about to load
// it.
func (s *Store) GC() {
	ents, err := s.FS.ReadDir(s.Dir)
	if err != nil {
		return
	}
	type group struct {
		key   string
		paths []string
		sizes []int64
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
		path := filepath.Join(s.Dir, name)
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		age := now.Sub(fi.ModTime())
		switch {
		case strings.Contains(name, ".tmp"), strings.Contains(name, ".steal."):
			// A crashed writer's partial record or lock token (never
			// renamed or linked into place, so never read), or debris
			// from a stealer that crashed between marker and rename (or
			// a renamed grave it never removed): pure garbage once old
			// enough.
			if age > s.Tuning.GCTmpAge {
				if s.FS.Remove(path) == nil {
					removed++
				}
			}
		case strings.HasSuffix(name, ".lock"):
			key := strings.TrimSuffix(name, ".lock")
			if s.Tuning.stale(fi) {
				if s.Steal(path, key, fi) {
					removed++
				}
			} else {
				live[key] = true
			}
		case strings.Contains(name, "."):
			key := name[:strings.LastIndexByte(name, '.')]
			g := groups[key]
			if g == nil {
				g = &group{key: key}
				groups[key] = g
			}
			g.paths = append(g.paths, path)
			g.sizes = append(g.sizes, fi.Size())
			if fi.ModTime().After(g.atime) {
				g.atime = fi.ModTime()
			}
			total += fi.Size()
		}
	}
	if s.Tuning.MaxBytes > 0 && total > s.Tuning.MaxBytes {
		// Evict whole key groups by access time (maintained by Read's
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
			if total <= s.Tuning.MaxBytes {
				break
			}
			if live[g.key] {
				continue // in-flight key: never evict under a live lock
			}
			for i, p := range g.paths {
				if s.FS.Remove(p) == nil {
					total -= g.sizes[i]
					evicted++
				}
			}
		}
	}
	if s.Obs != nil && (removed > 0 || evicted > 0) {
		s.Obs.Proc.Counter("store.gc_evictions", "files").Add(uint64(evicted))
		s.Obs.Emit(obs.EvStoreGC, filepath.Base(s.Dir), 0, uint64(removed), uint64(evicted), 0)
	}
}
