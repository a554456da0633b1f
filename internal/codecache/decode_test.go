package codecache_test

import (
	"bytes"
	"reflect"
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/machine"
	"codesignvm/internal/workload"
)

// softSnapshot runs app cold on VM.soft long enough to form superblocks
// and returns its parsed translation snapshot: real records, both kinds.
func softSnapshot(tb testing.TB, app string) *codecache.Snapshot {
	tb.Helper()
	prog, err := workload.App(app, 100)
	if err != nil {
		tb.Fatal(err)
	}
	vm := machine.NewVM(machine.VMSoft, prog)
	if _, err := vm.Run(2_000_000); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vm.SaveTranslations(&buf); err != nil {
		tb.Fatal(err)
	}
	snap, err := codecache.ParseSnapshot(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	kinds := map[codecache.TransKind]int{}
	for _, e := range snap.Entries {
		kinds[e.Kind]++
	}
	if kinds[codecache.KindBBT] == 0 || kinds[codecache.KindSBT] == 0 {
		tb.Fatalf("%s: snapshot holds %d BBT and %d SBT records, want both", app, kinds[codecache.KindBBT], kinds[codecache.KindSBT])
	}
	return snap
}

// TestDecodeIntoMatchesDecode: decoding a whole snapshot through one
// reused scratch gives, entry for entry, the translation a fresh Decode
// gives, and what Insert committed from the scratch is not disturbed by
// the decodes that reuse it afterwards.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	for _, app := range []string{"Word", "Winzip", "Project"} {
		snap := softSnapshot(t, app)
		cache := codecache.New("probe", 0xC0000000, 64<<20)
		var sc codecache.DecodeScratch
		committed := make([]*codecache.Translation, snap.Len())
		for i := range snap.Entries {
			want, err := snap.Decode(i)
			if err != nil {
				t.Fatalf("%s entry %d: %v", app, i, err)
			}
			got, err := snap.DecodeInto(i, &sc)
			if err != nil {
				t.Fatalf("%s entry %d: %v", app, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s entry %d (%#x): scratch decode differs from Decode:\n got %+v\nwant %+v", app, i, want.EntryPC, got, want)
			}
			// Two kinds share the probe cache; their entry PCs may
			// collide, which Insert resolves by replacing — the
			// committed copy is what is checked, not the table.
			if committed[i], _, err = cache.Insert(got); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range committed {
			want, err := snap.Decode(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Uops, want.Uops) || !reflect.DeepEqual(c.Exits, want.Exits) ||
				c.EntryPC != want.EntryPC || c.Kind != want.Kind || c.NumX86 != want.NumX86 ||
				c.X86Bytes != want.X86Bytes || c.Size != want.Size || c.NumUops != want.NumUops {
				t.Fatalf("%s entry %d (%#x): committed translation changed under later decodes", app, i, want.EntryPC)
			}
		}
	}
}

// TestDecodeIntoZeroAlloc: once a scratch has decoded a snapshot's
// largest record, decoding every record again allocates nothing.
func TestDecodeIntoZeroAlloc(t *testing.T) {
	snap := softSnapshot(t, "Word")
	var sc codecache.DecodeScratch
	pass := func() {
		for i := range snap.Entries {
			if _, err := snap.DecodeInto(i, &sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if avg := testing.AllocsPerRun(10, pass); avg != 0 {
		t.Errorf("%v allocations per pass over %d records", avg, snap.Len())
	}
}

// BenchmarkSnapshotDecode is the restore path's decode leg: one op is one
// translation decoded through one scratch (ns/op and B/op are per
// translation).
func BenchmarkSnapshotDecode(b *testing.B) {
	snap := softSnapshot(b, "Word")
	var sc codecache.DecodeScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.DecodeInto(i%snap.Len(), &sc); err != nil {
			b.Fatal(err)
		}
	}
}
