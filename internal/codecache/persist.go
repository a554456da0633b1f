package codecache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"codesignvm/internal/fisa"
	"codesignvm/internal/store"
)

// Translation persistence: serialize a code cache's live translations so
// a later run can start with them resident — the FX!32-style
// translate-once-reuse-later strategy discussed in the paper's related
// work (§1.2). Micro-op code is stored in its real binary encoding;
// execution metadata (per-micro-op architected PCs) and exit descriptors
// ride alongside.
//
// Format (CCVM2). One section per cache:
//
//	magic "CCVM2"
//	u32   count
//	count × index entry (24 bytes):
//	        u32 entry PC, u32 kind, u32 x86 instrs,
//	        u64 saved retirement count, u32 record length
//	count translation records, back to back in index order
//	u32   CRC-32C (Castagnoli) over everything above (store.Seal)
//
// The index is the warm-start contract: a restorer maps entry PC to a
// record's (offset, length) without decoding any record, so restored
// translations can fault in lazily on first dispatch miss (Snapshot /
// ParseSnapshot below). Save emits translations in ascending-EntryPC
// order and skips invalidated ones, so the byte stream is a pure
// function of the live cache contents: saving the same simulation state
// twice — or from any host execution mode — produces identical bytes.
// Any truncation, extension or bit flip breaks the CRC trailer; a
// record that decodes to a different shape than its index entry claims
// is rejected too.

const (
	persistMagic = "CCVM2"

	indexEntrySize = 24
	// maxPersistCount / maxPersistRecord bound what a parser will
	// allocate for before the checksum has been verified.
	maxPersistCount  = 1 << 20
	maxPersistRecord = 1 << 26
	minPersistRecord = 28 // the 7×u32 record header alone
)

// Save writes every live translation to w as one CCVM2 section, in
// ascending-EntryPC order. Invalidated translations (superseded BBT
// blocks awaiting a flush) are skipped: the snapshot is the set a fresh
// run can actually dispatch.
func (c *Cache) Save(w io.Writer) error {
	live := make([]*Translation, 0, len(c.table))
	for _, t := range c.table {
		if t.Invalid {
			continue
		}
		live = append(live, t)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].EntryPC < live[j].EntryPC })

	// Encode the records first: the index needs their lengths.
	var body bytes.Buffer
	bw := bufio.NewWriter(&body)
	lens := make([]int, len(live))
	for i, t := range live {
		before := body.Len()
		if err := writeTranslation(bw, t); err != nil {
			return fmt.Errorf("codecache: save %#x: %w", t.EntryPC, err)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		lens[i] = body.Len() - before
	}

	var sec bytes.Buffer
	sec.WriteString(persistMagic)
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		sec.Write(b[:])
	}
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		sec.Write(b[:])
	}
	u32(uint32(len(live)))
	for i, t := range live {
		u32(t.EntryPC)
		u32(uint32(t.Kind))
		u32(uint32(t.NumX86))
		u64(t.ExecCount)
		u32(uint32(lens[i]))
	}
	sec.Write(body.Bytes())
	_, err := w.Write(store.Seal(sec.Bytes()))
	return err
}

// SnapEntry is one translation's index entry in a parsed snapshot: the
// identity a restorer needs (entry PC, kind, size, saved retirement
// count for hot-first preloading) plus the record's location.
type SnapEntry struct {
	EntryPC uint32
	Kind    TransKind
	NumX86  uint32
	// Exec is the translation's software retirement count at save time.
	// It orders hybrid warm-start preloading (hottest head first); the
	// restored translation itself starts profiling from zero.
	Exec uint64

	off, n int // record location in the snapshot bytes
}

// Snapshot is a parsed, checksum-verified CCVM2 byte stream (one or
// more sections): an index of every persisted translation plus the
// still-encoded record bytes, so individual translations can be decoded
// lazily with DecodeInto (or Decode). The underlying bytes are retained
// and must not be mutated by the caller. A Snapshot is immutable after
// ParseSnapshot and safe for concurrent decodes, each through a scratch
// of its own.
type Snapshot struct {
	data    []byte
	Entries []SnapEntry
	// Sections counts the CCVM2 sections parsed. A full VM snapshot
	// (vmm.SaveTranslations) is always exactly two — BBT then SBT, even
	// when empty — so consumers can reject a stream truncated at a
	// section boundary, which is structurally valid section by section.
	Sections int
}

// Len returns the number of persisted translations.
func (s *Snapshot) Len() int { return len(s.Entries) }

// Size returns the snapshot's encoded size in bytes.
func (s *Snapshot) Size() int { return len(s.data) }

// Bytes returns the CCVM2 stream the snapshot was parsed from, for
// persisting it. It is the retained buffer, not a copy: read-only.
func (s *Snapshot) Bytes() []byte { return s.data }

// ParseSnapshot validates a CCVM2 byte stream — every section's
// structure and CRC-32C trailer — and builds the lazy-restore index.
// It decodes no translation records; DecodeInto does that per entry.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("codecache: empty snapshot")
	}
	s := &Snapshot{data: data}
	for off := 0; off < len(data); {
		entries, n, err := parseSection(data[off:], off)
		if err != nil {
			return nil, fmt.Errorf("codecache: snapshot section at %d: %w", off, err)
		}
		s.Entries = append(s.Entries, entries...)
		s.Sections++
		off += n
	}
	return s, nil
}

// parseSection validates one CCVM2 section at the start of sec and
// returns its index entries (offsets made absolute with base) and its
// total encoded length.
func parseSection(sec []byte, base int) ([]SnapEntry, int, error) {
	hdr := len(persistMagic) + 4
	if len(sec) < hdr {
		return nil, 0, fmt.Errorf("truncated header (%d bytes)", len(sec))
	}
	if string(sec[:len(persistMagic)]) != persistMagic {
		return nil, 0, fmt.Errorf("bad magic %q", sec[:len(persistMagic)])
	}
	count := int(binary.LittleEndian.Uint32(sec[len(persistMagic):hdr]))
	if count > maxPersistCount {
		return nil, 0, fmt.Errorf("implausible translation count %d", count)
	}
	idxEnd := hdr + count*indexEntrySize
	if idxEnd < hdr || len(sec) < idxEnd {
		return nil, 0, fmt.Errorf("truncated index (%d entries, %d bytes)", count, len(sec))
	}
	entries := make([]SnapEntry, count)
	off := idxEnd
	for i := range entries {
		e := &entries[i]
		ix := sec[hdr+i*indexEntrySize:]
		e.EntryPC = binary.LittleEndian.Uint32(ix)
		e.Kind = TransKind(binary.LittleEndian.Uint32(ix[4:]))
		e.NumX86 = binary.LittleEndian.Uint32(ix[8:])
		e.Exec = binary.LittleEndian.Uint64(ix[12:])
		n := int(binary.LittleEndian.Uint32(ix[20:]))
		if e.Kind != KindBBT && e.Kind != KindSBT {
			return nil, 0, fmt.Errorf("entry %d: unknown translation kind %d", i, e.Kind)
		}
		if n < minPersistRecord || n > maxPersistRecord {
			return nil, 0, fmt.Errorf("entry %d: implausible record length %d", i, n)
		}
		e.off, e.n = base+off, n
		off += n
		if off > len(sec)-4 {
			return nil, 0, fmt.Errorf("entry %d: record overruns section", i)
		}
	}
	if len(sec) < off+4 {
		return nil, 0, fmt.Errorf("truncated checksum trailer")
	}
	if _, err := store.Unseal(sec[:off+4], persistMagic); err != nil {
		return nil, 0, err
	}
	return entries, off + 4, nil
}

// DecodeScratch is a reusable decode buffer, the restore path's
// counterpart of bbt.Scratch: DecodeInto builds each translation into its
// retained backing arrays, so decoding record after record through one
// scratch allocates nothing once the arrays have grown to the largest
// record. The zero value is ready for use.
type DecodeScratch struct {
	t Translation
}

// DecodeInto decodes entry i into sc, cross-checked against its index
// entry. The returned translation (including its slices) is valid only
// until sc's next DecodeInto and must be copied out before then —
// re-analyzed and committed into a cache arena via Insert, exactly as a
// bbt.Scratch translation is.
func (s *Snapshot) DecodeInto(i int, sc *DecodeScratch) (*Translation, error) {
	e := &s.Entries[i]
	if err := sc.decode(s.data[e.off:e.off+e.n], e); err != nil {
		return nil, fmt.Errorf("codecache: decode %#x: %w", e.EntryPC, err)
	}
	return &sc.t, nil
}

// Decode is DecodeInto on a scratch of its own: the caller owns the
// result for as long as it likes.
func (s *Snapshot) Decode(i int) (*Translation, error) {
	return s.DecodeInto(i, new(DecodeScratch))
}

// Record layout, after the 7×u32 header: the micro-op code, a 5-byte
// sidecar per micro-op (u32 architected PC, u8 boundary marker), and 15
// bytes per exit (kind, target register, call/ret flags, then u32
// target, branch PC, return PC).
const (
	sidecarSize    = 5
	exitRecordSize = 15
)

// decode is one length-checked walk over a record's own bytes into
// sc.t: the header's counts must account for every byte of rec before
// any of them is indexed, and the record must be the one index entry e
// describes.
func (sc *DecodeScratch) decode(rec []byte, e *SnapEntry) error {
	if len(rec) < minPersistRecord {
		return fmt.Errorf("truncated record header (%d bytes)", len(rec))
	}
	le := binary.LittleEndian
	kind, pc, numX86, x86Bytes := le.Uint32(rec), le.Uint32(rec[4:]), le.Uint32(rec[8:]), le.Uint32(rec[12:])
	nUops, codeLen, nExits := int(le.Uint32(rec[16:])), int(le.Uint32(rec[20:])), int(le.Uint32(rec[24:]))
	if nUops > 1<<20 || codeLen > 1<<24 || nExits > 1<<16 {
		return fmt.Errorf("implausible sizes: %d uops, %d bytes, %d exits", nUops, codeLen, nExits)
	}
	if pc != e.EntryPC || kind != uint32(e.Kind) || numX86 != e.NumX86 {
		return fmt.Errorf("record disagrees with index (pc %#x kind %d x86 %d)", pc, kind, numX86)
	}
	if want := minPersistRecord + codeLen + nUops*sidecarSize + nExits*exitRecordSize; len(rec) < want {
		return fmt.Errorf("truncated record: %d bytes, header describes %d", len(rec), want)
	} else if len(rec) > want {
		return fmt.Errorf("%d trailing record bytes", len(rec)-want)
	}
	// A micro-op is 2 or 4 bytes: refuse a count the code cannot hold
	// before sizing anything by it.
	if codeLen < 2*nUops || codeLen > 4*nUops {
		return fmt.Errorf("%d code bytes cannot hold %d µops", codeLen, nUops)
	}

	uops, exits := sc.t.Uops[:0], sc.t.Exits[:0]
	if cap(uops) < nUops {
		uops = make([]fisa.MicroOp, 0, nUops)
	}
	if cap(exits) < nExits {
		exits = make([]Exit, 0, nExits)
	}
	code, rest := rec[minPersistRecord:minPersistRecord+codeLen], rec[minPersistRecord+codeLen:]
	uops, err := fisa.DecodeAll(uops, code)
	if err != nil {
		return err
	}
	if len(uops) != nUops {
		return fmt.Errorf("decoded %d µops, header says %d", len(uops), nUops)
	}
	for i := range uops {
		side := rest[i*sidecarSize : (i+1)*sidecarSize]
		uops[i].X86PC = le.Uint32(side)
		uops[i].Boundary = side[4]
	}
	rest = rest[nUops*sidecarSize:]
	exits = exits[:nExits]
	for i := range exits {
		x := rest[i*exitRecordSize : (i+1)*exitRecordSize]
		exits[i] = Exit{
			Kind:      ExitKind(x[0]),
			TargetReg: fisa.Reg(x[1]),
			Call:      x[2]&1 != 0,
			Ret:       x[2]&2 != 0,
			Target:    le.Uint32(x[3:]),
			BranchPC:  le.Uint32(x[7:]),
			ReturnPC:  le.Uint32(x[11:]),
		}
	}
	sc.t = Translation{
		Kind:     e.Kind,
		EntryPC:  pc,
		Uops:     uops,
		Exits:    exits,
		Size:     codeLen,
		NumX86:   int(numX86),
		NumUops:  nUops,
		X86Bytes: int(x86Bytes),
	}
	return nil
}

func writeTranslation(w *bufio.Writer, t *Translation) error {
	code, _, err := fisa.EncodeAll(t.Uops)
	if err != nil {
		return err
	}
	hdr := []uint32{
		uint32(t.Kind), t.EntryPC, uint32(t.NumX86), uint32(t.X86Bytes),
		uint32(len(t.Uops)), uint32(len(code)), uint32(len(t.Exits)),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := w.Write(code); err != nil {
		return err
	}
	// Metadata sidecar: per-µop architected PC (delta from entry) and
	// boundary marker.
	for i := range t.Uops {
		if err := binary.Write(w, binary.LittleEndian, t.Uops[i].X86PC); err != nil {
			return err
		}
		if err := w.WriteByte(t.Uops[i].Boundary); err != nil {
			return err
		}
	}
	for i := range t.Exits {
		e := &t.Exits[i]
		flags := byte(0)
		if e.Call {
			flags |= 1
		}
		if e.Ret {
			flags |= 2
		}
		if err := w.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		if err := w.WriteByte(byte(e.TargetReg)); err != nil {
			return err
		}
		if err := w.WriteByte(flags); err != nil {
			return err
		}
		for _, v := range []uint32{e.Target, e.BranchPC, e.ReturnPC} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return nil
}
