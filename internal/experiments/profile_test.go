package experiments

import (
	"bytes"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"codesignvm/internal/metrics"
	"codesignvm/internal/obs"
	"codesignvm/internal/store"
	"codesignvm/internal/store/faultfs"
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
	if fi, err := os.Stat(profPath(opt.store(), key)); err != nil || fi.Size() != int64(profRecordLen) {
		t.Fatalf("profile not published as a %d-byte record: %v", profRecordLen, err)
	}
	if other := (profKey{"Word", opt.Scale, opt.ShortInstrs, 4000}).fileKey(); other == key {
		t.Error("hot threshold did not affect the profile key")
	}

	// A "new process": only the disk store remains.
	ResetRunCacheForTest()
	hits := counter(o, "store.hits")
	b, err := opt.profile("Word", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if counter(o, "store.hits") != hits+1 || interpreted.Value() != opt.ShortInstrs {
		t.Fatal("second process interpreted the profile instead of loading it")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("store-loaded profile differs from the interpreted one")
	}

	// FreshRuns skips the memo and the store read: it interprets.
	fresh := opt
	fresh.FreshRuns = true
	hits = counter(o, "store.hits")
	c, err := fresh.profile("Word", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if counter(o, "store.hits") != hits || interpreted.Value() != 2*opt.ShortInstrs {
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

// TestWarmPassComputesNothing: once a store holds a pass of every named
// experiment, a later process's pass is store reads and formatting — it
// starts no run, builds (or even reads) no snapshot, interprets no
// instruction and misses nothing — and a pass after that, in the same
// process, does not touch the store at all. Every report stays byte-identical, and so do
// the flamegraph and timeline exports: each pass observes with
// attribution and timelines on, and both files are written from the
// Results the reports consumed, however they were served.
func TestWarmPassComputesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	fs := &readCountingFS{}
	opt := detOpt()
	opt.FreshRuns = false
	opt.Store = t.TempDir()
	opt.storeTest = func(s *store.Store) { s.FS = fs }
	type counts struct{ runs, instrs, hits, misses uint64 }
	type passOut struct {
		reports         map[string]string
		counts          counts
		flame, timeline string
	}
	// Each pass is one process's worth of observation: its own observer.
	pass := func() passOut {
		t.Helper()
		o := obs.NewObserver(nil)
		o.EnableAttrib(DefaultAttribSpec(opt.LongInstrs))
		o.EnableTimeline()
		opt := opt
		opt.Obs = o
		out := passOut{reports: map[string]string{}}
		for _, exp := range ExperimentNames() {
			txt, err := RunExperiment(exp, opt, "")
			if err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
			out.reports[exp] = txt
		}
		out.counts = counts{
			o.Proc.Counter("runs.started", "runs").Value(),
			o.Proc.Counter("profile.instrs", "instrs").Value(),
			o.Proc.Counter("store.hits", "loads").Value(),
			o.Proc.Counter("store.misses", "loads").Value(),
		}
		var flame, timeline bytes.Buffer
		if n, err := o.WriteFlamegraph(&flame); err != nil || n == 0 {
			t.Fatalf("flamegraph of %d runs: %v", n, err)
		}
		if n, err := o.WriteTimelines(&timeline); err != nil || n == 0 {
			t.Fatalf("timelines of %d runs: %v", n, err)
		}
		out.flame, out.timeline = flame.String(), timeline.String()
		return out
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
	if c := cold.counts; c.runs == 0 || c.instrs == 0 || c.misses == 0 {
		t.Fatalf("cold pass did not compute: %+v", c)
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
	if c := warm.counts; c.runs != 0 || c.instrs != 0 || c.misses != 0 || c.hits == 0 {
		t.Errorf("warm pass computed: started %d runs, interpreted %d instructions, missed the store %d times, hit it %d times",
			c.runs, c.instrs, c.misses, c.hits)
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
	if again.counts != (counts{}) {
		t.Errorf("memoized pass moved the counters: %+v", again.counts)
	}

	for _, exp := range ExperimentNames() {
		if warm.reports[exp] != cold.reports[exp] {
			t.Errorf("%s: store-served report differs\n--- cold ---\n%s--- warm ---\n%s", exp, cold.reports[exp], warm.reports[exp])
		}
		if again.reports[exp] != cold.reports[exp] {
			t.Errorf("%s: memo-served report differs\n--- cold ---\n%s--- again ---\n%s", exp, cold.reports[exp], again.reports[exp])
		}
	}
	for name, p := range map[string]passOut{"warm": warm, "memoized": again} {
		if p.flame != cold.flame {
			t.Errorf("%s pass flamegraph differs from the cold pass's", name)
		}
		if p.timeline != cold.timeline {
			t.Errorf("%s pass timelines differ from the cold pass's", name)
		}
	}
}

// TestFig3ProfilesInterpretedOnce: fig3 and overhead both ask for every
// app's interpreter profile. Run as two processes over one store — the
// memos reset in between — each app is interpreted once in total, the
// later process interprets nothing, and Fig. 3 is byte-identical to the
// storeless report.
func TestFig3ProfilesInterpretedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	ref := detOpt()
	ref.FreshRuns = false
	ResetRunCacheForTest()
	want, err := RunExperiment("fig3", ref, "")
	if err != nil {
		t.Fatal(err)
	}

	o := obs.NewObserver(nil)
	opt := ref
	opt.Store = t.TempDir()
	opt.Obs = o
	ResetRunCacheForTest()
	got, err := RunExperiment("fig3", opt, "")
	if err != nil {
		t.Fatal(err)
	}
	ResetRunCacheForTest()
	if _, err := RunExperiment("overhead", opt, ""); err != nil {
		t.Fatal(err)
	}
	once := uint64(len(opt.Apps)) * opt.ShortInstrs
	if n := o.Proc.Counter("profile.instrs", "instrs").Value(); n != once {
		t.Errorf("fig3 then overhead interpreted %d instructions, want %d (each app once)", n, once)
	}
	if got != want {
		t.Errorf("store-backed Fig. 3 differs from the storeless one\n--- storeless ---\n%s--- store ---\n%s", want, got)
	}
}
