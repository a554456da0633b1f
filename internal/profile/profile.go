// Package profile implements the hotspot-detection mechanisms of the
// co-designed VM. Two detectors are provided, matching the paper:
//
//   - Software profiling: counters embedded in BBT-translated code. The
//     counter is the translation's ExecCount; the cost (a few cycles per
//     block execution) is charged by the timing model. This is the
//     detector used by VM.soft and VM.be.
//
//   - A hardware branch behavior buffer (BBB) in the style of Merten et
//     al.: a 4K-entry table after the retire stage that counts executed
//     branch targets with no software overhead. VM.fe relies on it
//     because with dual-mode decoders there is no BBT code to embed
//     counters in.
//
// Both detectors implement the same policy: a region becomes hot when its
// entry has been executed HotThreshold times (Eq. 2 of the paper).
package profile

// Software is the embedded-counter detector. The VM keeps the per-block
// counter in the translation itself; this type tracks per-PC entry
// counts in one flat counter table, so the per-block-execution cost is a
// single probe (RecordEntry runs on every dispatch of cold code). Counts
// only grow until Clear, so a region crosses the threshold on exactly
// one entry and no "already reported" mark is kept.
type Software struct {
	Threshold uint64
	counts    *Counters
}

// NewSoftware returns a software detector with the given hot threshold
// (in region entries).
func NewSoftware(threshold uint64) *Software {
	// A detector covers one program's touched static blocks — typically
	// hundreds to thousands.
	return &Software{Threshold: threshold, counts: NewCounters(1024)}
}

// RecordEntry notes one execution of the region entered at pc with the
// given instruction count, returning true when the region has just
// crossed the hot threshold (exactly once per region).
func (s *Software) RecordEntry(pc uint32, instrs int) bool {
	return s.counts.Inc(uint64(pc)) == max(s.Threshold, 1)
}

// Count returns the accumulated execution count for pc.
func (s *Software) Count(pc uint32) uint64 { return s.counts.Get(uint64(pc)) }

// Clear forgets every region (used after superblock-cache flushes so
// re-translated regions can become hot again).
func (s *Software) Clear() { s.counts.Clear() }

// BBB is the Merten-style hardware branch behavior buffer: a
// direct-mapped, tagged table of saturating execution counters indexed by
// branch-target PC. Capacity conflicts evict the previous entry, so rare
// regions can lose their counts — an accuracy/cost trade-off of the
// hardware scheme that the software detector does not have.
type BBB struct {
	Threshold uint64
	entries   []bbbEntry
	mask      uint32
	reported  map[uint32]bool

	// Statistics.
	Evictions uint64
}

type bbbEntry struct { // 16 bytes: the wide field first
	count uint64
	tag   uint32
	valid bool
}

// NewBBB returns a branch behavior buffer with size entries (must be a
// power of two; the paper uses 4K) and the given hot threshold.
func NewBBB(size int, threshold uint64) *BBB {
	if size&(size-1) != 0 || size <= 0 {
		panic("profile: BBB size must be a power of two")
	}
	return &BBB{
		Threshold: threshold,
		entries:   make([]bbbEntry, size),
		mask:      uint32(size - 1),
		reported:  make(map[uint32]bool),
	}
}

func (b *BBB) index(pc uint32) uint32 {
	// Branch targets are at least 1 byte apart; fold the PC.
	h := pc ^ (pc >> 13)
	return (h >> 1) & b.mask
}

// RecordEntry is Software.RecordEntry for the hardware table.
func (b *BBB) RecordEntry(pc uint32, instrs int) bool {
	e := &b.entries[b.index(pc)]
	if !e.valid || e.tag != pc {
		if e.valid {
			b.Evictions++
		}
		e.tag = pc
		e.count = 0
		e.valid = true
	}
	e.count++
	if e.count >= b.Threshold && !b.reported[pc] {
		b.reported[pc] = true
		return true
	}
	return false
}

// Count returns the execution count the table holds for pc.
func (b *BBB) Count(pc uint32) uint64 {
	e := &b.entries[b.index(pc)]
	if e.valid && e.tag == pc {
		return e.count
	}
	return 0
}

// Clear empties the table and forgets which regions were reported.
func (b *BBB) Clear() {
	clear(b.entries)
	clear(b.reported)
}

// EdgeProfile records taken counts of control-flow edges between
// architected basic blocks. The superblock translator uses it to follow
// the dominant path when forming superblocks. Edges are keyed by a
// packed (from,to) word in one flat counter table: recording happens on
// every exit from cold code.
type EdgeProfile struct {
	edges *Counters
}

func edgeKey(from, to uint32) uint64 {
	return uint64(from)<<32 | uint64(to)
}

// NewEdgeProfile returns an empty edge profile.
func NewEdgeProfile() *EdgeProfile {
	return &EdgeProfile{edges: NewCounters(512)}
}

// Record adds one traversal of the edge from→to.
func (p *EdgeProfile) Record(from, to uint32) { p.edges.Inc(edgeKey(from, to)) }

// Count returns the traversal count of from→to.
func (p *EdgeProfile) Count(from, to uint32) uint64 { return p.edges.Get(edgeKey(from, to)) }
