// Package store is the persistent, content-addressed record store: a
// directory of sealed records, each named by the hash of its identity,
// shared by every process that opens the directory. It owns record
// framing (Seal, Unseal), key derivation (HashKey), the one lookup path
// (Fetch: read, else single-flight, build and publish), atomic publish,
// the cross-process lock, quarantine and GC, and knows nothing about
// what a record holds. Every store failure degrades to building —
// persistence is an accelerator, never a correctness dependency; only a
// cancelled context propagates. All filesystem access goes through the
// faultfs.FS seam. docs/runstore.md specifies the formats and the
// protocol.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"time"

	"codesignvm/internal/obs"
	"codesignvm/internal/store/faultfs"
)

// Tuning groups the lock-protocol and GC time and size constants so
// tests can shrink the timescales; DefaultTuning holds the production
// values.
type Tuning struct {
	// LockStale is how long a lock file's mtime may sit unrefreshed
	// before a waiter assumes the owner died and steals it. The owner's
	// heartbeat refreshes the mtime well inside this window, so live
	// owners are never stolen from, however long they build.
	LockStale time.Duration
	// Heartbeat is the owner-side mtime refresh period.
	Heartbeat time.Duration
	// PollMin/PollMax bound the waiter's exponential backoff between
	// checks for the owner's published record.
	PollMin, PollMax time.Duration
	// WaitMax is the hard deadline on one lock wait: past it the waiter
	// stops trusting single-flight (hung but heartbeating peer, clock
	// trouble) and degrades to building without the lock.
	WaitMax time.Duration
	// GCTmpAge is how old an orphaned .tmp* or .steal.* file must be
	// before GC collects it.
	GCTmpAge time.Duration
	// MaxBytes caps the total size of the records, quarantined ones
	// included; GC evicts least-recently-used records (by access time,
	// maintained with an explicit touch on every hit so noatime mounts
	// behave) until the store fits. 0 = uncapped.
	MaxBytes int64
}

// DefaultTuning is the production tuning.
var DefaultTuning = Tuning{
	LockStale: 10 * time.Minute,
	Heartbeat: time.Minute,
	PollMin:   25 * time.Millisecond,
	PollMax:   time.Second,
	WaitMax:   30 * time.Minute,
	GCTmpAge:  time.Hour,
}

// Store is one handle on a store directory: the directory, the
// filesystem seam, the tuning, and the observability hooks. Handles are
// cheap; any number of them, in any number of processes, may share a
// directory.
type Store struct {
	Dir    string
	FS     faultfs.FS
	Tuning Tuning
	// Obs receives the store.* counters and the store events; nil
	// disables them.
	Obs *obs.Observer
	// Ctx cancels lock waits; it must not be nil.
	Ctx context.Context
}

// Path places one of a key's files — record, lock, sidecar — in the
// store directory.
func (s *Store) Path(key, ext string) string { return filepath.Join(s.Dir, key+ext) }

// crcTable is the Castagnoli polynomial (same choice as iSCSI/ext4:
// hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal appends the little-endian CRC-32C trailer over everything before
// it. Any truncation, extension or bit flip of the sealed bytes breaks
// it.
func Seal(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, crcTable))
}

// Unseal verifies a sealed record's trailer and returns the payload it
// guards; decoders read nothing before it has passed. magic names the
// record format in errors, and a record shorter than it plus the
// trailer is refused.
func Unseal(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("store: %s record too short (%d bytes)", magic, len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("store: %s record checksum mismatch (got %08x, want %08x)", magic, got, want)
	}
	return payload, nil
}

// HashKey derives a store key from a record's finished identity bytes:
// 32 hex digits of their SHA-256.
func HashKey(identity []byte) string {
	sum := sha256.Sum256(identity)
	var key [32]byte
	hex.Encode(key[:], sum[:16])
	return string(key[:])
}

// Artifact is one kind of record as the store's one lookup path (Fetch)
// sees it.
type Artifact[T any] struct {
	// Key derives the content hash that names the record, its lock and
	// its quarantine sidecar. A func, like Tag: neither is computed for
	// a lookup that never touches a store (or an observer).
	Key func() string
	// Ext is the record's file extension, e.g. ".run".
	Ext string
	// Tag identifies the lookup on store-hit/store-miss events.
	Tag func() string
	// Decode verifies a record's bytes and only then reads them; an
	// error quarantines the record. Encode is its inverse.
	Decode func([]byte) (T, error)
	Encode func(T) []byte
	// Build computes the value when the store cannot supply it.
	Build func() (T, error)
}

// Fetch returns an artifact's value: read from the store when the
// record is there, otherwise computed by exactly one process — the miss
// contends for the key's lock (Acquire), re-reads under it (the record
// may have been published between the miss and winning a just-freed
// lock, or by the owner this process waited for), builds, publishes and
// releases. Every store failure degrades to building; only build errors
// and a cancelled wait propagate. A nil store just builds.
func Fetch[T any](s *Store, a Artifact[T]) (T, error) {
	if s == nil {
		return a.Build()
	}
	key := a.Key()
	path := s.Path(key, a.Ext)
	if v, ok := Read(s, key, path, a.Decode); ok {
		s.lookup(true, a.Tag)
		return v, nil
	}
	s.lookup(false, a.Tag)
	for attempt := 0; ; attempt++ {
		release, won, err := s.Acquire(key, path)
		if err != nil {
			return *new(T), err // cancelled mid-wait
		}
		if !won {
			release = func() {}
		}
		if v, ok := Read(s, key, path, a.Decode); ok {
			release()
			s.lookup(true, a.Tag)
			return v, nil
		}
		if !won && attempt < 2 {
			continue // the record the wait ended on vanished (cleaned store?): re-contend
		}
		// Won, or the record keeps disappearing under us (aggressive GC,
		// flaky storage) and the store is no longer trusted: build. The
		// lock goes even if Build panics, or its heartbeat would hold it
		// for as long as the process lives.
		defer release()
		v, err := a.Build()
		if err == nil {
			s.Publish(path, a.Encode(v)) // best-effort
		}
		return v, err
	}
}

// Put encodes v and publishes it under the artifact's key: what Fetch
// does after a build, for a value built elsewhere. A nil store is a
// no-op. Errors are returned for logging; callers treat them as
// non-fatal.
func Put[T any](s *Store, a Artifact[T], v T) error {
	if s == nil {
		return nil
	}
	return s.Publish(s.Path(a.Key(), a.Ext), a.Encode(v))
}

// Read is the store's one read path: absent, unreadable or corrupt
// records are all a miss, so callers fall back to building. Corrupt
// records are quarantined to a .bad sidecar (never re-read, kept for
// diagnosis); hits are touched so the size-cap GC evicts
// least-recently-used records.
func Read[T any](s *Store, key, path string, decode func([]byte) (T, error)) (T, bool) {
	data, err := s.FS.ReadFile(path)
	if err != nil {
		return *new(T), false
	}
	v, err := decode(data)
	if err != nil {
		s.quarantine(key, path, len(data))
		return *new(T), false
	}
	now := time.Now()
	s.FS.Chtimes(path, now, now) // LRU touch; best-effort
	return v, true
}

// lookup reports one Fetch outcome; tag names what was looked up and is
// evaluated only with an observer attached.
func (s *Store) lookup(hit bool, tag func() string) {
	if s.Obs == nil {
		return
	}
	name, kind := "store.misses", obs.EvStoreMiss
	if hit {
		name, kind = "store.hits", obs.EvStoreHit
	}
	s.Obs.Proc.Counter(name, "loads").Inc()
	s.Obs.Emit(kind, tag(), 0, 0, 0, 0)
}

// Publish is the store's one writer: the record lands under a temp name
// (the record's own name plus .tmp and a random suffix) and is renamed
// to path, so concurrent readers never observe a partial file. Errors are returned for logging but callers treat them
// as non-fatal; a failed write removes its temp file (best-effort — a
// killed process leaves an orphan for GC).
func (s *Store) Publish(path string, data []byte) error {
	if err := s.FS.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	tmp, err := s.FS.CreateTemp(s.Dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.FS.Remove(tmp.Name())
		return err
	}
	return s.FS.Rename(tmp.Name(), path)
}

// quarantine moves a corrupt record aside as <key>.bad so it is never
// re-read (every future lookup would otherwise re-fail on it) while
// preserving the bytes for diagnosis. Best-effort: when even the
// rename fails (read-only store) the entry simply stays a miss.
func (s *Store) quarantine(key, path string, size int) {
	s.FS.Rename(path, s.Path(key, ".bad"))
	if s.Obs != nil {
		s.Obs.Proc.Counter("store.corrupt", "records").Inc()
		s.Obs.Emit(obs.EvStoreCorrupt, key, 0, uint64(size), 0, 0)
	}
}
