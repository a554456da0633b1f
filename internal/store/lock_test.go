package store

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"codesignvm/internal/obs"
	"codesignvm/internal/store/faultfs"
)

// TestLockKilledBeforeLink: a process killed between writing its lock
// token to a temp file and linking it into place leaves no lock — the
// next contender takes the key's lock at once, with nothing to wait out
// or steal — and only the temp file, which GC collects once it is older
// than GCTmpAge.
func TestLockKilledBeforeLink(t *testing.T) {
	dir := t.TempDir()
	tun := Tuning{
		LockStale: time.Minute,
		Heartbeat: time.Minute,
		PollMin:   time.Millisecond,
		PollMax:   time.Millisecond,
		WaitMax:   time.Second,
		GCTmpAge:  time.Hour,
	}
	key := "k1113d"
	in := faultfs.NewInjector(faultfs.Disk{}, &faultfs.Fault{Op: faultfs.OpLink, Path: ".lock", Kill: true})
	victim := &Store{Dir: dir, FS: in, Tuning: tun, Ctx: context.Background()}
	release, _, err := victim.Acquire(key, victim.Path(key, ".run"))
	if err != nil {
		t.Fatal(err)
	}
	release()
	if !in.Dead() {
		t.Fatal("the kill did not fire on the token's link")
	}
	lock := victim.Path(key, ".lock")
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Fatalf("a process killed before the link left a lock (stat: %v)", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), key+".lock.tmp") {
		t.Fatalf("want the token's temp file as the only debris, got %v", ents)
	}
	debris := ents[0].Name()

	// A healthy process takes the lock at once, with its token in it.
	s := &Store{Dir: dir, FS: faultfs.Disk{}, Tuning: tun, Obs: obs.NewObserver(nil), Ctx: context.Background()}
	start := time.Now()
	release, won, err := s.Acquire(key, s.Path(key, ".run"))
	if err != nil || !won {
		t.Fatalf("the next contender: won=%v err=%v", won, err)
	}
	if waited := time.Since(start); waited > tun.WaitMax/2 {
		t.Errorf("the next contender waited %v for the lock", waited)
	}
	if data, err := os.ReadFile(lock); err != nil || !strings.HasPrefix(string(data), "pid ") {
		t.Errorf("lock holds %q (err %v), want its owner's token", data, err)
	}
	release()
	if m, _ := s.Obs.Proc.Snapshot().Get("store.lock_steals"); m.Value != 0 {
		t.Errorf("%v steals, want none", m.Value)
	}

	// GC keeps the debris while it is young and collects it once old.
	s.GC()
	if _, err := os.Stat(s.Path(debris, "")); err != nil {
		t.Fatalf("GC removed young debris: %v", err)
	}
	old := time.Now().Add(-2 * tun.GCTmpAge)
	if err := os.Chtimes(s.Path(debris, ""), old, old); err != nil {
		t.Fatal(err)
	}
	s.GC()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("GC left %v", ents)
	}
}
