package experiments

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/metrics"
	"codesignvm/internal/obs"
)

// sampleProfile builds a profile with a distinct value in every encoded
// field.
func sampleProfile() appProfile {
	p := appProfile{
		hist: metrics.Histogram{
			Buckets:  make([]uint64, profBuckets),
			DynFrac:  make([]float64, profBuckets),
			Total:    4321,
			DynTotal: 987654,
		},
		hot: 37,
	}
	for i := range p.hist.Buckets {
		p.hist.Buckets[i] = uint64(1000 + i)
		p.hist.DynFrac[i] = float64(i+1) / 37.5
	}
	return p
}

// TestProfileRecordRoundTrip: encodeProfile followed by decodeProfile
// reproduces the profile exactly, float bit patterns included, in the
// fixed record length.
func TestProfileRecordRoundTrip(t *testing.T) {
	want := sampleProfile()
	rec := encodeProfile(want)
	if len(rec) != profRecordLen {
		t.Fatalf("record is %d bytes, want %d", len(rec), profRecordLen)
	}
	got, err := decodeProfile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestProfileRecordRejects: a record of the wrong length or the wrong
// magic is rejected even when its CRC trailer is valid — the trailer
// proves the bytes are what was written, not that a profile was.
func TestProfileRecordRejects(t *testing.T) {
	rec := encodeProfile(sampleProfile())
	payload := rec[:len(rec)-4]
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one byte short, resealed", encodeTrailer(payload[:len(payload)-1])},
		{"one word long, resealed", encodeTrailer(append(append([]byte{}, payload...), 0, 0, 0, 0, 0, 0, 0, 0))},
		{"run magic, resealed", encodeTrailer(append([]byte(runMagic), payload[len(profMagic):]...))},
		{"appended byte", append(append([]byte{}, rec...), 0xEE)},
		{"a run record", encodeResult(sampleResult())},
	} {
		if p, err := decodeProfile(tc.data); err == nil {
			t.Errorf("%s: decoded as %+v", tc.name, p)
		}
	}
}

// TestProfileMemoHandsOutCopies: the histogram slices a report carries
// are the caller's own; scribbling on them cannot reach the memo.
func TestProfileMemoHandsOutCopies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt()
	opt.FreshRuns = false
	ResetRunCacheForTest()
	first, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := FormatFig3(first)
	pristine := map[string]metrics.Histogram{}
	for app, h := range first.PerApp {
		pristine[app] = metrics.Histogram{
			Buckets:  append([]uint64(nil), h.Buckets...),
			DynFrac:  append([]float64(nil), h.DynFrac...),
			Total:    h.Total,
			DynTotal: h.DynTotal,
		}
		for i := range h.Buckets {
			h.Buckets[i] = ^uint64(0)
			h.DynFrac[i] = -1
		}
	}
	again, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.PerApp, pristine) {
		t.Error("mutating a returned histogram corrupted the profile memo")
	}
	if got := FormatFig3(again); got != want {
		t.Errorf("report changed after the mutation\n--- before ---\n%s--- after ---\n%s", want, got)
	}
}

// TestProfileStoreReuse: a profile interpreted by one process is loaded
// — not interpreted again — by the next, FreshRuns recomputes without
// reading, and the three agree exactly.
func TestProfileStoreReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	o := obs.NewObserver(nil)
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Store = t.TempDir()
	opt.Obs = o
	interpreted := o.Proc.Counter("profile.instrs", "instrs")

	ResetRunCacheForTest()
	a, err := opt.profile("Word", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if interpreted.Value() != opt.ShortInstrs {
		t.Fatalf("cold lookup interpreted %d instructions, want %d", interpreted.Value(), opt.ShortInstrs)
	}
	key := profKey{"Word", opt.Scale, opt.ShortInstrs, 8000}.fileKey()
	if fi, err := os.Stat(opt.store().profPath(key)); err != nil || fi.Size() != int64(profRecordLen) {
		t.Fatalf("profile not published as a %d-byte record: %v", profRecordLen, err)
	}
	if other := (profKey{"Word", opt.Scale, opt.ShortInstrs, 4000}).fileKey(); other == key {
		t.Error("hot threshold did not affect the profile key")
	}

	// A "new process": only the disk store remains.
	ResetRunCacheForTest()
	hits := storeHits.Load()
	b, err := opt.profile("Word", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits.Load() != hits+1 || interpreted.Value() != opt.ShortInstrs {
		t.Fatal("second process interpreted the profile instead of loading it")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("store-loaded profile differs from the interpreted one")
	}

	// FreshRuns skips the memo and the store read: it interprets.
	fresh := opt
	fresh.FreshRuns = true
	hits = storeHits.Load()
	c, err := fresh.profile("Word", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits.Load() != hits || interpreted.Value() != 2*opt.ShortInstrs {
		t.Fatal("FreshRuns did not recompute the profile")
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("fresh profile differs from the stored one")
	}
}

// readCountingFS is the real disk, counting file reads by extension.
type readCountingFS struct {
	faultfs.Disk
	reads, snapReads atomic.Int64
}

func (fs *readCountingFS) ReadFile(name string) ([]byte, error) {
	fs.reads.Add(1)
	if strings.HasSuffix(name, ".ccvm") {
		fs.snapReads.Add(1)
	}
	return fs.Disk.ReadFile(name)
}

// TestWarmPassComputesNothing: once a store holds a pass of the figures,
// a later process's pass is store reads and formatting — it starts no
// run, builds (or even reads) no snapshot, interprets no instruction and
// misses nothing — and a pass after that, in the same process, does not
// touch the store at all. Every report stays byte-identical.
func TestWarmPassComputesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	exps := []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "overhead", "persist", "warmstart"}
	o := obs.NewObserver(nil)
	fs := &readCountingFS{}
	opt := detOpt()
	opt.FreshRuns = false
	opt.Store = t.TempDir()
	opt.Obs = o
	opt.storeFS = fs
	pass := func() map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, exp := range exps {
			txt, err := RunExperiment(exp, opt, "")
			if err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
			out[exp] = txt
		}
		return out
	}
	type counts struct{ runs, instrs, hits, misses uint64 }
	read := func() counts {
		return counts{
			o.Proc.Counter("runs.started", "runs").Value(),
			o.Proc.Counter("profile.instrs", "instrs").Value(),
			o.Proc.Counter("store.hits", "loads").Value(),
			o.Proc.Counter("store.misses", "loads").Value(),
		}
	}
	files := func() []string {
		ents, err := os.ReadDir(opt.Store)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		sort.Strings(names)
		return names
	}

	ResetRunCacheForTest()
	cold := pass()
	afterCold := read()
	if afterCold.runs == 0 || afterCold.instrs == 0 || afterCold.misses == 0 {
		t.Fatalf("cold pass did not compute: %+v", afterCold)
	}
	stored := files()
	for _, ext := range []string{".run", ".ccvm", ".prof"} {
		n := 0
		for _, name := range stored {
			if strings.HasSuffix(name, ext) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("cold pass published no %s record", ext)
		}
	}

	// A later process: the memos are gone, the store is not.
	ResetRunCacheForTest()
	snapReads := fs.snapReads.Load()
	warm := pass()
	afterWarm := read()
	if d := afterWarm.runs - afterCold.runs; d != 0 {
		t.Errorf("warm pass started %d runs", d)
	}
	if d := afterWarm.instrs - afterCold.instrs; d != 0 {
		t.Errorf("warm pass interpreted %d instructions", d)
	}
	if d := afterWarm.misses - afterCold.misses; d != 0 {
		t.Errorf("warm pass missed the store %d times", d)
	}
	if afterWarm.hits == afterCold.hits {
		t.Error("warm pass counted no store hit")
	}
	if d := fs.snapReads.Load() - snapReads; d != 0 {
		t.Errorf("warm pass read %d snapshots: a served run needs none", d)
	}
	if got := files(); !reflect.DeepEqual(got, stored) {
		t.Errorf("warm pass changed the store's files:\n before %v\n after  %v", stored, got)
	}

	// The same process again: the memos serve everything.
	reads := fs.reads.Load()
	again := pass()
	if d := fs.reads.Load() - reads; d != 0 {
		t.Errorf("memoized pass read %d files", d)
	}
	if afterAgain := read(); afterAgain != afterWarm {
		t.Errorf("memoized pass moved the counters: %+v -> %+v", afterWarm, afterAgain)
	}

	for _, exp := range exps {
		if warm[exp] != cold[exp] {
			t.Errorf("%s: store-served report differs\n--- cold ---\n%s--- warm ---\n%s", exp, cold[exp], warm[exp])
		}
		if again[exp] != cold[exp] {
			t.Errorf("%s: memo-served report differs\n--- cold ---\n%s--- again ---\n%s", exp, cold[exp], again[exp])
		}
	}
}

// TestFig3UnitsFeedTheMerge: distributed fig3 and overhead units leave
// their profiles in the store, so each app is interpreted once however
// many units ask for it and the merging process interprets nothing.
func TestFig3UnitsFeedTheMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	ref := detOpt()
	ref.FreshRuns = false
	ResetRunCacheForTest()
	refRep, err := Fig3(ref)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.NewObserver(nil)
	opt := ref
	opt.Store = t.TempDir()
	opt.Obs = o
	interpreted := o.Proc.Counter("profile.instrs", "instrs")
	units := append(ExpandUnits("fig3", opt, ""), ExpandUnits("overhead", opt, "")...)
	if len(units) != 2*len(opt.Apps) {
		t.Fatalf("want %d units, got %v", 2*len(opt.Apps), units)
	}
	for _, u := range units {
		// Every unit is a worker process of its own.
		ResetRunCacheForTest()
		if err := RunUnit(u, opt); err != nil {
			t.Fatalf("%s: %v", u, err)
		}
	}
	if got, want := interpreted.Value(), uint64(len(opt.Apps))*opt.ShortInstrs; got != want {
		t.Errorf("units interpreted %d instructions, want %d (each app once)", got, want)
	}

	ResetRunCacheForTest()
	merged, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := interpreted.Value(), uint64(len(opt.Apps))*opt.ShortInstrs; got != want {
		t.Errorf("the merge interpreted %d instructions", got-want)
	}
	if got, want := FormatFig3(merged), FormatFig3(refRep); got != want {
		t.Errorf("merged report differs from the storeless one\n--- storeless ---\n%s--- merged ---\n%s", want, got)
	}
}
