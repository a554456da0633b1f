package codecache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"codesignvm/internal/fisa"
	"codesignvm/internal/x86"
)

func persistFixture() *Translation {
	return &Translation{
		Kind:     KindSBT,
		EntryPC:  0x401000,
		NumX86:   3,
		X86Bytes: 9,
		NumUops:  5,
		Uops: []fisa.MicroOp{
			{Op: fisa.UADDI, W: 4, SetF: true, Dst: fisa.REAX, Src1: fisa.REAX, Imm: 4, X86PC: 0x401000, Boundary: 1},
			{Op: fisa.UCMPI, W: 4, Src1: fisa.REAX, Imm: 100, X86PC: 0x401003, Fused: true},
			{Op: fisa.UBR, W: 4, Cond: x86.CondL, Imm: 3, X86PC: 0x401006, Boundary: 2},
			{Op: fisa.UEXIT, W: 4, Imm: 0},
			{Op: fisa.UEXIT, W: 4, Imm: 1, Src1: fisa.RT5},
		},
		Exits: []Exit{
			{Kind: ExitFall, Target: 0x401008, BranchPC: 0x401006},
			{Kind: ExitIndirect, TargetReg: fisa.RT5, BranchPC: 0x401006, Ret: true, ReturnPC: 0x40100B},
		},
	}
}

func sizeOf(t *Translation) int {
	s := 0
	for i := range t.Uops {
		s += fisa.EncodedLen(&t.Uops[i])
	}
	return s
}

// randTranslation builds a structurally valid translation with
// randomized content for the round-trip property test: the fixture's
// µop templates with randomized immediates, PCs and boundary markers,
// and a randomized exit list.
func randTranslation(rng *rand.Rand, pc uint32) *Translation {
	base := persistFixture()
	n := 1 + rng.Intn(len(base.Uops))
	uops := append([]fisa.MicroOp(nil), base.Uops[:n]...)
	for i := range uops {
		uops[i].Imm = int32(rng.Intn(1024))
		uops[i].X86PC = pc + uint32(rng.Intn(64))
		uops[i].Boundary = byte(rng.Intn(3))
	}
	kinds := []ExitKind{ExitFall, ExitTaken, ExitSide, ExitIndirect}
	exits := make([]Exit, rng.Intn(4))
	for i := range exits {
		exits[i] = Exit{
			Kind:     kinds[rng.Intn(len(kinds))],
			Target:   rng.Uint32(),
			BranchPC: pc + uint32(rng.Intn(64)),
			ReturnPC: rng.Uint32(),
			Call:     rng.Intn(2) == 1,
			Ret:      rng.Intn(2) == 1,
		}
	}
	t := &Translation{
		Kind:     KindBBT,
		EntryPC:  pc,
		NumX86:   1 + rng.Intn(16),
		X86Bytes: 1 + rng.Intn(64),
		NumUops:  len(uops),
		Uops:     uops,
		Exits:    exits,
	}
	if rng.Intn(2) == 1 {
		t.Kind = KindSBT
	}
	t.Size = sizeOf(t)
	t.ExecCount = uint64(rng.Intn(1 << 20))
	return t
}

// comparePersisted checks the persisted surface of two translations:
// identity, shape, and the encoded µop/exit fields.
func comparePersisted(t *testing.T, want, got *Translation) {
	t.Helper()
	if got.Kind != want.Kind || got.EntryPC != want.EntryPC ||
		got.NumX86 != want.NumX86 || got.X86Bytes != want.X86Bytes {
		t.Errorf("header mismatch at %#x: %+v", want.EntryPC, got)
	}
	if len(got.Uops) != len(want.Uops) {
		t.Fatalf("%#x: uops %d vs %d", want.EntryPC, len(got.Uops), len(want.Uops))
	}
	for i := range want.Uops {
		a, b := want.Uops[i], got.Uops[i]
		if a.Op != b.Op || a.Fused != b.Fused || a.Dst != b.Dst || a.Imm != b.Imm ||
			a.X86PC != b.X86PC || a.Boundary != b.Boundary {
			t.Errorf("%#x µop %d: %v vs %v", want.EntryPC, i, a, b)
		}
	}
	if len(got.Exits) != len(want.Exits) {
		t.Fatalf("%#x: exits %d vs %d", want.EntryPC, len(got.Exits), len(want.Exits))
	}
	for i := range want.Exits {
		a, b := want.Exits[i], got.Exits[i]
		a.Chained, b.Chained = nil, nil
		a.Count, b.Count = 0, 0
		if a != b {
			t.Errorf("%#x exit %d: %+v vs %+v", want.EntryPC, i, a, b)
		}
	}
}

// restoreAll is the restore path production uses (vmm.Restore, eager):
// parse the stream, decode every record through one scratch, commit each
// into dst. Returns how many translations were restored.
func restoreAll(dst *Cache, data []byte) (int, error) {
	snap, err := ParseSnapshot(data)
	if err != nil {
		return 0, err
	}
	var sc DecodeScratch
	for i := range snap.Entries {
		t, err := snap.DecodeInto(i, &sc)
		if err != nil {
			return i, err
		}
		if _, _, err := dst.Insert(t); err != nil {
			return i, err
		}
	}
	return snap.Len(), nil
}

func TestPersistRoundTrip(t *testing.T) {
	src := New("src", 0x1000, 1<<20)
	tr := persistFixture()
	tr.Size = sizeOf(tr)
	if _, _, err := src.Insert(tr); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New("dst", 0x2000, 1<<20)
	n, err := restoreAll(dst, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d", n)
	}
	got := dst.Lookup(0x401000)
	if got == nil {
		t.Fatal("translation not restored")
	}
	comparePersisted(t, persistFixture(), got)
	// The restored translation got a fresh address in the new cache.
	if got.Addr < 0x2000 {
		t.Errorf("restored addr %#x outside destination cache", got.Addr)
	}
}

func TestPersistManyTranslations(t *testing.T) {
	src := New("src", 0, 1<<20)
	for i := 0; i < 50; i++ {
		tr := persistFixture()
		tr.EntryPC = uint32(0x400000 + i*16)
		tr.Size = sizeOf(tr)
		if _, _, err := src.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New("dst", 0, 1<<20)
	n, err := restoreAll(dst, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || dst.Len() != 50 {
		t.Fatalf("restored %d (len %d)", n, dst.Len())
	}
}

// TestPersistSortedDeterministic pins the byte-stability contract:
// Save's output is a pure function of the live cache contents —
// independent of insertion order (the table is a Go map) and of how
// many times it is saved — and invalidated translations are excluded.
func TestPersistSortedDeterministic(t *testing.T) {
	pcs := []uint32{0x404000, 0x400000, 0x408000, 0x402000, 0x406000, 0x401000}
	build := func(order []uint32) *Cache {
		c := New("c", 0, 1<<20)
		for _, pc := range order {
			tr := persistFixture()
			tr.EntryPC = pc
			tr.Size = sizeOf(tr)
			if _, _, err := c.Insert(tr); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	a := build(pcs)
	rev := make([]uint32, len(pcs))
	for i, pc := range pcs {
		rev[len(pcs)-1-i] = pc
	}
	b := build(rev)

	var bufA1, bufA2, bufB bytes.Buffer
	for _, sv := range []struct {
		c *Cache
		w *bytes.Buffer
	}{{a, &bufA1}, {a, &bufA2}, {b, &bufB}} {
		if err := sv.c.Save(sv.w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufA1.Bytes(), bufA2.Bytes()) {
		t.Error("saving the same cache twice produced different bytes")
	}
	if !bytes.Equal(bufA1.Bytes(), bufB.Bytes()) {
		t.Error("insertion order leaked into the persisted bytes")
	}

	// Invalidated translations are not part of the snapshot.
	inv := a.Lookup(0x404000)
	inv.Invalid = true
	var bufInv bytes.Buffer
	if err := a.Save(&bufInv); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(bufInv.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != len(pcs)-1 {
		t.Fatalf("snapshot holds %d entries, want %d (invalid excluded)", snap.Len(), len(pcs)-1)
	}
	for _, e := range snap.Entries {
		if e.EntryPC == 0x404000 {
			t.Error("invalidated translation persisted")
		}
	}
}

// TestSnapshotLazyIndex checks the warm-start index: entries sorted by
// entry PC, carrying kind/size/retirement metadata, each lazily
// decodable to the translation an eager restore would commit.
func TestSnapshotLazyIndex(t *testing.T) {
	src := New("src", 0, 1<<20)
	want := map[uint32]*Translation{}
	for i := 0; i < 20; i++ {
		tr := persistFixture()
		tr.EntryPC = uint32(0x500000 - i*64)
		tr.ExecCount = uint64(1000 - i)
		tr.Size = sizeOf(tr)
		want[tr.EntryPC] = tr
		if _, _, err := src.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sections != 1 || snap.Len() != len(want) || snap.Size() != buf.Len() {
		t.Fatalf("sections %d entries %d size %d", snap.Sections, snap.Len(), snap.Size())
	}
	for i, e := range snap.Entries {
		if i > 0 && snap.Entries[i-1].EntryPC >= e.EntryPC {
			t.Fatalf("index not sorted at %d", i)
		}
		w := want[e.EntryPC]
		if w == nil {
			t.Fatalf("unknown entry %#x", e.EntryPC)
		}
		if e.Kind != w.Kind || int(e.NumX86) != w.NumX86 || e.Exec != w.ExecCount {
			t.Errorf("index entry %#x: kind %d x86 %d exec %d", e.EntryPC, e.Kind, e.NumX86, e.Exec)
		}
		got, err := snap.Decode(i)
		if err != nil {
			t.Fatal(err)
		}
		comparePersisted(t, w, got)
	}
}

// TestPersistPropertyRoundTrip is the randomized round-trip property
// test: arbitrary valid translation sets survive Save → ParseSnapshot →
// Decode, and restore into a second cache, bit-equivalently on their
// persisted surface.
func TestPersistPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		src := New("src", 0, 4<<20)
		n := 1 + rng.Intn(40)
		want := make(map[uint32]*Translation, n)
		for len(want) < n {
			pc := 0x400000 + uint32(rng.Intn(1<<16))*4
			if _, dup := want[pc]; dup {
				continue
			}
			tr := randTranslation(rng, pc)
			orig := *tr
			orig.Uops = append([]fisa.MicroOp(nil), tr.Uops...)
			orig.Exits = append([]Exit(nil), tr.Exits...)
			want[pc] = &orig
			if _, _, err := src.Insert(tr); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := ParseSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if snap.Len() != n {
			t.Fatalf("trial %d: %d entries, want %d", trial, snap.Len(), n)
		}
		for i, e := range snap.Entries {
			got, err := snap.Decode(i)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			comparePersisted(t, want[e.EntryPC], got)
			if e.Exec != want[e.EntryPC].ExecCount {
				t.Errorf("trial %d: %#x exec %d want %d", trial, e.EntryPC, e.Exec, want[e.EntryPC].ExecCount)
			}
		}
		dst := New("dst", 0, 4<<20)
		if m, err := restoreAll(dst, buf.Bytes()); err != nil || m != n || dst.Len() != n {
			t.Fatalf("trial %d: restored %d (len %d), %v", trial, m, dst.Len(), err)
		}
		for pc, w := range want {
			got := dst.Lookup(pc)
			if got == nil {
				t.Fatalf("trial %d: %#x not restored", trial, pc)
			}
			comparePersisted(t, w, got)
		}
	}
}

// TestPersistTruncationAndBitFlips sweeps structural corruption over a
// real section: every strict prefix and every single-bit flip must be
// rejected (the CRC-32C trailer catches whatever the structural checks
// miss). Nothing corrupt may parse.
func TestPersistTruncationAndBitFlips(t *testing.T) {
	src := New("src", 0, 1<<20)
	for i := 0; i < 8; i++ {
		tr := persistFixture()
		tr.EntryPC = uint32(0x400000 + i*32)
		tr.Size = sizeOf(tr)
		if _, _, err := src.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ParseSnapshot(good); err != nil {
		t.Fatalf("pristine section rejected: %v", err)
	}

	for cut := 0; cut < len(good); cut++ {
		if _, err := ParseSnapshot(good[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(good))
		}
	}
	flipped := make([]byte, len(good))
	for i := 0; i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, good)
			flipped[i] ^= 1 << bit
			if _, err := ParseSnapshot(flipped); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
	// A rejected stream restores nothing.
	dst := New("dst", 0, 1<<20)
	if n, err := restoreAll(dst, good[:len(good)-1]); err == nil || n != 0 || dst.Len() != 0 {
		t.Errorf("truncated section restored %d translations (len %d), err %v", n, dst.Len(), err)
	}
	copy(flipped, good)
	flipped[len(flipped)/2] ^= 0x10
	if n, err := restoreAll(dst, flipped); err == nil || n != 0 || dst.Len() != 0 {
		t.Errorf("flipped section restored %d translations (len %d), err %v", n, dst.Len(), err)
	}
}

func TestPersistBadInput(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"bad magic", "XXXXX garbage"},
		{"v1 magic", "CCVM1 old-format"},
		{"truncated header", "CCVM2"},
		// Valid magic, implausible count then EOF.
		{"truncated body", "CCVM2\xff\xff\xff\xff"},
		{"empty snapshot", ""},
	} {
		dst := New("dst", 0, 1<<20)
		if n, err := restoreAll(dst, []byte(tc.in)); err == nil || n != 0 || dst.Len() != 0 {
			t.Errorf("%s accepted: restored %d, err %v", tc.name, n, err)
		}
	}
}

// TestSnapshotBytesPinned pins the bytes Save writes for a fixed
// two-section stream — a BBT cache then an SBT cache of seeded random
// translations, the shape vmm.SaveTranslations writes: .ccvm records in
// a populated store read back only if the encoding, the section framing
// and the CRC-32C trailer stay byte-identical. A mismatch means the
// CCVM2 format moved.
func TestSnapshotBytesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var buf bytes.Buffer
	for _, name := range []string{"bbt", "sbt"} {
		c := New(name, 0, 1<<20)
		for i := 0; i < 24; i++ {
			if _, _, err := c.Insert(randTranslation(rng, uint32(0x400000+i*64))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sections != 2 || snap.Len() != 48 {
		t.Fatalf("pinned stream: %d sections, %d entries; want 2 and 48", snap.Sections, snap.Len())
	}
	const want = "fb8d3f017cca414a8be9abf3b59c52b8af09106e7e034ca15cad247f0a605ca8"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("CCVM2 stream (%d bytes): SHA-256 %s, want %s", buf.Len(), got, want)
	}
}
