package experiments

// Multi-process stress tests for the run store's cross-process
// single-flight protocol. The parent re-execs this test binary
// (os.Executable) with RUNSTORE_CHILD set, selecting
// TestRunStoreStressChild; each child contends for one store key
// through the real lock protocol on a shared directory and prints its
// outcome ("OUTCOME: SIMULATED" or "OUTCOME: LOADED") for the parent
// to count. Kill-9 injection: the parent SIGKILLs a lock-holding child
// mid-"simulation", so its heartbeat dies with it and the survivors
// must steal the stale lock — exactly once.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"codesignvm/internal/store"
	"codesignvm/internal/store/faultfs"
)

// stressTuning is the child-side protocol tuning: small enough that a
// stale steal happens in under a second, large enough that heartbeats
// are never mistaken for death under CI scheduling jitter.
func stressTuning() store.Tuning {
	return store.Tuning{
		LockStale: 400 * time.Millisecond,
		Heartbeat: 80 * time.Millisecond,
		PollMin:   5 * time.Millisecond,
		PollMax:   40 * time.Millisecond,
		WaitMax:   60 * time.Second,
		GCTmpAge:  time.Hour,
	}
}

// TestRunStoreStressChild is the re-exec entry point; it is a skip
// unless the parent set RUNSTORE_CHILD.
func TestRunStoreStressChild(t *testing.T) {
	if os.Getenv("RUNSTORE_CHILD") == "" {
		t.Skip("re-exec helper for the multi-process stress tests")
	}
	s := &store.Store{Dir: os.Getenv("RUNSTORE_DIR"), FS: faultfs.Disk{}, Tuning: stressTuning(), Ctx: context.Background()}
	key := os.Getenv("RUNSTORE_KEY")
	holdMS, _ := strconv.Atoi(os.Getenv("RUNSTORE_HOLD_MS"))

	// Mirror store.Fetch's path exactly: load, then contend.
	if res, _ := load(s, key); res != nil {
		fmt.Println("OUTCOME: LOADED")
		return
	}
	for attempt := 0; ; attempt++ {
		if attempt > 10 {
			t.Fatal("child livelocked on the store key")
		}
		release, won, err := s.Acquire(key, runPath(s, key))
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if !won {
			if res, _ := load(s, key); res != nil {
				fmt.Println("OUTCOME: LOADED")
				return
			}
			continue
		}
		if res, _ := load(s, key); res != nil { // double-check under the lock
			release()
			fmt.Println("OUTCOME: LOADED")
			return
		}
		// We are the single flight. Two shapes:
		//
		// Default: signal the parent (so it can kill us here), "simulate"
		// for the hold time, publish, release.
		//
		// RUNSTORE_HOLD_AFTER_SAVE: publish the record AND a sibling
		// snapshot first, signal the parent, then keep the lock (still
		// heartbeating) until the release file appears — the window in
		// which the parent hammers GC to prove a live-locked key's
		// artifacts are never evicted.
		if os.Getenv("RUNSTORE_HOLD_AFTER_SAVE") != "" {
			if err := save(s, key, sampleResult()); err != nil {
				t.Fatalf("save: %v", err)
			}
			if err := s.Publish(snapPath(s, key), []byte("stress sibling snapshot payload")); err != nil {
				t.Fatalf("publish snapshot: %v", err)
			}
			if owner := os.Getenv("RUNSTORE_OWNER_FILE"); owner != "" {
				if err := os.WriteFile(owner, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			relFile := os.Getenv("RUNSTORE_RELEASE_FILE")
			for deadline := time.Now().Add(30 * time.Second); ; {
				if _, err := os.Stat(relFile); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("release file never appeared")
				}
				time.Sleep(5 * time.Millisecond)
			}
			release()
			fmt.Println("OUTCOME: SIMULATED")
			return
		}
		if owner := os.Getenv("RUNSTORE_OWNER_FILE"); owner != "" {
			if err := os.WriteFile(owner, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Duration(holdMS) * time.Millisecond)
		if err := save(s, key, sampleResult()); err != nil {
			t.Fatalf("save: %v", err)
		}
		release()
		fmt.Println("OUTCOME: SIMULATED")
		return
	}
}

// stressChild builds the re-exec command for one contender.
func stressChild(t *testing.T, dir, key string, holdMS int, extraEnv ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestRunStoreStressChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"RUNSTORE_CHILD=1",
		"RUNSTORE_DIR="+dir,
		"RUNSTORE_KEY="+key,
		"RUNSTORE_HOLD_MS="+strconv.Itoa(holdMS),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	return cmd
}

// countOutcomes tallies the OUTCOME lines of finished children.
func countOutcomes(outputs []string) (simulated, loaded int) {
	for _, out := range outputs {
		simulated += strings.Count(out, "OUTCOME: SIMULATED")
		loaded += strings.Count(out, "OUTCOME: LOADED")
	}
	return
}

// assertStoreClean fails if the directory still holds lock files,
// steal markers or temp debris after the contenders exited.
func assertStoreClean(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".lock") || strings.Contains(name, ".steal.") || strings.Contains(name, ".tmp") {
			t.Errorf("store left debris: %s", name)
		}
	}
}

// TestRunStoreMultiProcessSingleFlight: N separate processes contend
// for one cold key; exactly one simulates, the rest load its published
// result, and the store is debris-free afterwards.
func TestRunStoreMultiProcessSingleFlight(t *testing.T) {
	dir := t.TempDir()
	key := "stress-single-flight"

	const contenders = 6
	cmds := make([]*exec.Cmd, contenders)
	outs := make([]string, contenders)
	for i := range cmds {
		cmds[i] = stressChild(t, dir, key, 150)
		outb := &strings.Builder{}
		cmds[i].Stdout = outb
		cmds[i].Stderr = outb
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("contender %d failed: %v", i, err)
		}
		outs[i] = cmd.Stdout.(*strings.Builder).String()
	}
	simulated, loaded := countOutcomes(outs)
	if simulated != 1 || loaded != contenders-1 {
		t.Fatalf("want 1 simulated / %d loaded, got %d / %d\n%s",
			contenders-1, simulated, loaded, strings.Join(outs, "\n---\n"))
	}
	assertStoreClean(t, dir)

	// The published record is valid.
	s := &store.Store{Dir: dir, FS: faultfs.Disk{}, Tuning: stressTuning(), Ctx: context.Background()}
	if res, err := load(s, key); res == nil || err != nil {
		t.Fatalf("published record unreadable: (%v, %v)", res, err)
	}
}

// TestRunStoreMultiProcessKillSteal: a lock-holding process takes
// SIGKILL mid-simulation (heartbeat dies with it); contenders arriving
// afterwards must steal the stale lock exactly once, re-simulate
// exactly once, and leave no orphaned locks.
func TestRunStoreMultiProcessKillSteal(t *testing.T) {
	dir := t.TempDir()
	key := "stress-kill-steal"
	ownerFile := filepath.Join(t.TempDir(), "owner.pid")

	// The victim: wins the cold lock, signals via ownerFile, then
	// "simulates" far longer than the test runs.
	victim := stressChild(t, dir, key, 60_000, "RUNSTORE_OWNER_FILE="+ownerFile)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ownerFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("victim never took the lock")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// SIGKILL: no deferred cleanup, no release, heartbeat stops.
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	if _, err := os.Stat(filepath.Join(dir, key+".lock")); err != nil {
		t.Fatalf("victim's orphaned lock missing before steal: %v", err)
	}

	const contenders = 5
	cmds := make([]*exec.Cmd, contenders)
	outs := make([]string, contenders)
	for i := range cmds {
		cmds[i] = stressChild(t, dir, key, 100)
		outb := &strings.Builder{}
		cmds[i].Stdout = outb
		cmds[i].Stderr = outb
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("contender %d failed: %v\n%s", i, err, cmd.Stdout.(*strings.Builder).String())
		}
		outs[i] = cmd.Stdout.(*strings.Builder).String()
	}
	simulated, loaded := countOutcomes(outs)
	if simulated != 1 || loaded != contenders-1 {
		t.Fatalf("after kill-9: want 1 simulated / %d loaded, got %d / %d\n%s",
			contenders-1, simulated, loaded, strings.Join(outs, "\n---\n"))
	}
	assertStoreClean(t, dir)
	s := &store.Store{Dir: dir, FS: faultfs.Disk{}, Tuning: stressTuning(), Ctx: context.Background()}
	if res, err := load(s, key); res == nil || err != nil {
		t.Fatalf("published record unreadable after steal: (%v, %v)", res, err)
	}
}

// TestRunStoreGCRacesLiveActivity: a GC sweep (size cap 1 byte, so it
// wants to evict everything) hammers the store while a separate process
// holds the key's lock with its record and snapshot already published,
// and waiters are loading them. The live-lock skip must keep both
// artifacts untouched for the whole window, the waiters must all load,
// and the record bytes must be unchanged by the final sweep.
func TestRunStoreGCRacesLiveActivity(t *testing.T) {
	dir := t.TempDir()
	key := "stress-gc-live"
	side := t.TempDir()
	ownerFile := filepath.Join(side, "owner.pid")
	releaseFile := filepath.Join(side, "release")

	// The holder: publishes record + snapshot, then keeps the lock
	// (heartbeating) until we write the release file.
	holder := stressChild(t, dir, key, 0,
		"RUNSTORE_OWNER_FILE="+ownerFile,
		"RUNSTORE_HOLD_AFTER_SAVE=1",
		"RUNSTORE_RELEASE_FILE="+releaseFile,
	)
	holderOut := &strings.Builder{}
	holder.Stdout, holder.Stderr = holderOut, holderOut
	if err := holder.Start(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ownerFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			holder.Process.Kill()
			holder.Wait()
			t.Fatal("holder never published + took the lock")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Concurrent waiters: they see the published record and load it
	// while the lock is still held. Started only after the holder
	// signalled ownership — any earlier and one of them could win the
	// acquire race instead, publish, and send the holder down its
	// LOADED path without ever taking the lock.
	const waiters = 3
	cmds := make([]*exec.Cmd, waiters)
	outs := make([]string, waiters)
	for i := range cmds {
		cmds[i] = stressChild(t, dir, key, 50)
		outb := &strings.Builder{}
		cmds[i].Stdout, cmds[i].Stderr = outb, outb
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer GC while the lock is live. The 1-byte cap makes every key
	// over budget, so only the live-lock skip stands between the
	// holder's artifacts and eviction.
	tun := stressTuning()
	tun.MaxBytes = 1
	gcs := &store.Store{Dir: dir, FS: faultfs.Disk{}, Tuning: tun, Ctx: context.Background()}
	for i := 0; i < 20; i++ {
		gcs.GC()
		if _, err := os.Stat(runPath(gcs, key)); err != nil {
			t.Fatalf("GC sweep %d evicted the live-locked record: %v", i, err)
		}
		if _, err := os.Stat(snapPath(gcs, key)); err != nil {
			t.Fatalf("GC sweep %d evicted the live-locked snapshot: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	before, err := os.ReadFile(runPath(gcs, key))
	if err != nil {
		t.Fatal(err)
	}

	// Let the holder finish; every process must exit clean.
	if err := os.WriteFile(releaseFile, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := holder.Wait(); err != nil {
		t.Fatalf("holder failed: %v\n%s", err, holderOut.String())
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("waiter %d failed: %v\n%s", i, err, cmd.Stdout.(*strings.Builder).String())
		}
		outs[i] = cmd.Stdout.(*strings.Builder).String()
	}
	simulated, loaded := countOutcomes(append(outs, holderOut.String()))
	if simulated != 1 || loaded != waiters {
		t.Fatalf("want 1 simulated / %d loaded, got %d / %d", waiters, simulated, loaded)
	}
	assertStoreClean(t, dir)

	// Final sweep with no size pressure: nothing to evict, record bytes
	// unchanged.
	tun.MaxBytes = 0
	(&store.Store{Dir: dir, FS: faultfs.Disk{}, Tuning: tun, Ctx: context.Background()}).GC()
	after, err := os.ReadFile(runPath(gcs, key))
	if err != nil {
		t.Fatalf("record gone after final sweep: %v", err)
	}
	if string(before) != string(after) {
		t.Fatal("record bytes changed across the final GC sweep")
	}
	s := &store.Store{Dir: dir, FS: faultfs.Disk{}, Tuning: stressTuning(), Ctx: context.Background()}
	if res, err := load(s, key); res == nil || err != nil {
		t.Fatalf("published record unreadable after GC racing: (%v, %v)", res, err)
	}

	// Once the lock is gone, the same cap evicts the whole key group —
	// record and snapshot leave together, never one without the other.
	tun.MaxBytes = 1
	(&store.Store{Dir: dir, FS: faultfs.Disk{}, Tuning: tun, Ctx: context.Background()}).GC()
	_, runErr := os.Stat(runPath(gcs, key))
	_, snapErr := os.Stat(snapPath(gcs, key))
	if runErr == nil || snapErr == nil {
		t.Fatalf("unlocked over-budget key not fully evicted: run=%v snap=%v", runErr, snapErr)
	}
}

// TestRunStoreMultiProcessRepeatedKills: several rounds of
// kill-then-contend against the SAME key directory to shake out steal
// debris accumulation (markers, graves) across incarnations.
func TestRunStoreMultiProcessRepeatedKills(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round re-exec stress")
	}
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		key := fmt.Sprintf("stress-round-%d", round)
		ownerFile := filepath.Join(t.TempDir(), "owner.pid")
		victim := stressChild(t, dir, key, 60_000, "RUNSTORE_OWNER_FILE="+ownerFile)
		if err := victim.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := os.Stat(ownerFile); err == nil {
				break
			}
			if time.Now().After(deadline) {
				victim.Process.Kill()
				victim.Wait()
				t.Fatalf("round %d: victim never took the lock", round)
			}
			time.Sleep(5 * time.Millisecond)
		}
		victim.Process.Kill()
		victim.Wait()

		const contenders = 4
		cmds := make([]*exec.Cmd, contenders)
		outs := make([]string, contenders)
		for i := range cmds {
			cmds[i] = stressChild(t, dir, key, 50)
			outb := &strings.Builder{}
			cmds[i].Stdout = outb
			cmds[i].Stderr = outb
			if err := cmds[i].Start(); err != nil {
				t.Fatal(err)
			}
		}
		for i, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				t.Fatalf("round %d contender %d failed: %v", round, i, err)
			}
			outs[i] = cmd.Stdout.(*strings.Builder).String()
		}
		if simulated, loaded := countOutcomes(outs); simulated != 1 || loaded != contenders-1 {
			t.Fatalf("round %d: want 1 simulated / %d loaded, got %d / %d",
				round, contenders-1, simulated, loaded)
		}
		assertStoreClean(t, dir)
	}
}
