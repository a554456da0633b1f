package codecache

import (
	"bytes"
	"encoding/binary"
	"testing"

	"codesignvm/internal/store"
)

// sealRecord wraps rec as the only record of a one-entry CCVM2 section
// whose index entry is e's identity, with a correct CRC trailer: what a
// writer with a bug, or a disk that flipped bits before the checksum was
// taken, would hand the parser.
func sealRecord(e SnapEntry, rec []byte) []byte {
	le := binary.LittleEndian
	sec := append([]byte(persistMagic), 1, 0, 0, 0)
	sec = le.AppendUint32(sec, e.EntryPC)
	sec = le.AppendUint32(sec, uint32(e.Kind))
	sec = le.AppendUint32(sec, e.NumX86)
	sec = le.AppendUint64(sec, e.Exec)
	sec = le.AppendUint32(sec, uint32(len(rec)))
	sec = append(sec, rec...)
	return store.Seal(sec)
}

// FuzzSnapshotRecord: the record decoder indexes the record's bytes
// itself, so whatever bytes a sealed section carries, ParseSnapshot +
// DecodeInto must return an error or a translation that agrees with its
// index entry and with its own header — never panic, never index out of
// range. The seeds are the fixture's record, every truncation of it and
// bit flips over all of it (every bit of the header).
func FuzzSnapshotRecord(f *testing.F) {
	src := New("src", 0, 1<<20)
	tr := persistFixture()
	tr.Size = sizeOf(tr)
	if _, _, err := src.Insert(tr); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		f.Fatal(err)
	}
	snap, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		f.Fatal(err)
	}
	entry := snap.Entries[0]
	good := snap.data[entry.off : entry.off+entry.n]

	f.Add(good)
	for cut := 0; cut < len(good); cut++ {
		f.Add(good[:cut])
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			if i >= minPersistRecord && bit != i%8 {
				continue
			}
			flipped := bytes.Clone(good)
			flipped[i] ^= 1 << bit
			f.Add(flipped)
		}
	}
	f.Add(append(bytes.Clone(good), 0)) // one trailing byte

	var sc DecodeScratch
	f.Fuzz(func(t *testing.T, rec []byte) {
		s, err := ParseSnapshot(sealRecord(entry, rec))
		if err != nil {
			return // a record length the index refuses
		}
		got, err := s.DecodeInto(0, &sc)
		if err != nil {
			return
		}
		if got.EntryPC != entry.EntryPC || got.Kind != entry.Kind || got.NumX86 != int(entry.NumX86) {
			t.Fatalf("decoded %#x kind %d x86 %d under index entry %+v", got.EntryPC, got.Kind, got.NumX86, entry)
		}
		if got.NumUops != len(got.Uops) || got.Size < 2*len(got.Uops) || got.Size > 4*len(got.Uops) {
			t.Fatalf("decoded shape inconsistent: %d µops, NumUops %d, %d code bytes", len(got.Uops), got.NumUops, got.Size)
		}
		if bytes.Equal(rec, good) {
			comparePersisted(t, persistFixture(), got)
		}
	})
}
