package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"codesignvm/internal/metrics"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/store"
	"codesignvm/internal/vmm"
)

// The harness's record formats in the store (internal/store): run
// results (`CRUN2`) and interpreter profiles (`CPRF1`), each sealed with
// the store's CRC-32C trailer (store.Seal) — as codecache seals each
// section of the translation snapshots (CCVM2, decodeSnapshot) the
// store holds beside them.

const (
	runMagic = "CRUN2"
	// runSchema versions the record encoding; bump it whenever
	// vmm.Result or the encoding change shape so stale stores miss
	// instead of misread. Keys hash vmm.Config's field names and kinds
	// (configShape), so a Config change invalidates keys on its own; the
	// version covers Result/encoding changes.
	// v2: appended observability metric snapshots (Result.Metrics).
	// v3: CRUN2 — CRC-32C trailer + trailing-EOF verification.
	// v4: warm-start — Result.RestoredTranslations/RestoredX86 appended
	//     and vmm.Config gained the WarmStart/Restore* fields (which
	//     change the hashed %#v form on their own).
	// v5: labeled metrics (Metric.Labels after Unit) and the trailing
	//     cycle-attribution section (Result.Attrib); keys additionally
	//     hash the attribution-spec string, so attributing and plain
	//     runs occupy distinct entries.
	// v6: the timeline section (Result.Timeline) after the attribution
	//     section; the old attribution flag became a section bit set,
	//     so a plain record is as long as at v5. Keys additionally hash
	//     the timeline bit.
	// v7: the code-cache flush counts (Result.BBTFlushes/SBTFlushes, one
	//     word after RestoredX86) and vmm.Config.SwitchPeriod.
	runSchema = 7
)

// encodeResult renders one run record: the CRUN2 magic and payload
// (appendResult), sealed.
func encodeResult(r *vmm.Result) []byte {
	return store.Seal(appendResult(make([]byte, 0, 1024+len(r.Samples)*sampleBytes), r))
}

// decodeResult verifies and decodes what encodeResult produced: the
// CRC trailer must match, the payload must decode, and the decoder
// must consume the payload exactly — a record truncated at a section
// boundary or with appended bytes is rejected even before the checksum
// existed. The payload is read in place; a count is refused before
// anything is sized by it unless its records fit in the bytes left.
func decodeResult(data []byte) (*vmm.Result, error) {
	payload, err := store.Unseal(data, runMagic)
	if err != nil {
		return nil, err
	}
	if string(payload[:len(runMagic)]) != runMagic {
		return nil, fmt.Errorf("experiments: bad run-store magic %q", payload[:len(runMagic)])
	}
	rd := recReader{b: payload[len(runMagic):]}
	res := readResult(&rd)
	if rd.err != nil {
		return nil, rd.err
	}
	if len(rd.b) != 0 {
		return nil, fmt.Errorf("experiments: %d trailing bytes after run record", len(rd.b))
	}
	return res, nil
}

// Profile record (`CPRF1`), fixed length: the magic, the histogram's
// eight bucket counts, its eight dynamic shares as IEEE-754 bits, Total,
// DynTotal and the hot-instruction count — nineteen little-endian u64 —
// sealed.
const (
	profMagic     = "CPRF1"
	profBuckets   = 8
	profRecordLen = len(profMagic) + (2*profBuckets+3)*8 + 4
)

func encodeProfile(p appProfile) []byte {
	le := binary.LittleEndian
	rec := append(make([]byte, 0, profRecordLen), profMagic...)
	for _, n := range p.hist.Buckets {
		rec = le.AppendUint64(rec, n)
	}
	for _, f := range p.hist.DynFrac {
		rec = le.AppendUint64(rec, math.Float64bits(f))
	}
	for _, n := range []uint64{p.hist.Total, p.hist.DynTotal, p.hot} {
		rec = le.AppendUint64(rec, n)
	}
	return store.Seal(rec)
}

// decodeProfile accepts exactly what encodeProfile wrote: the length,
// then the trailer, then the magic, and only then the fields.
func decodeProfile(data []byte) (appProfile, error) {
	if len(data) != profRecordLen {
		return appProfile{}, fmt.Errorf("experiments: profile record is %d bytes, want %d", len(data), profRecordLen)
	}
	payload, err := store.Unseal(data, profMagic)
	if err != nil {
		return appProfile{}, err
	}
	if string(payload[:len(profMagic)]) != profMagic {
		return appProfile{}, fmt.Errorf("experiments: bad profile magic %q", payload[:len(profMagic)])
	}
	var w [2*profBuckets + 3]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(payload[len(profMagic)+8*i:])
	}
	hist := metrics.Histogram{
		Buckets:  append([]uint64(nil), w[:profBuckets]...),
		DynFrac:  make([]float64, profBuckets),
		Total:    w[2*profBuckets],
		DynTotal: w[2*profBuckets+1],
	}
	for i := range hist.DynFrac {
		hist.DynFrac[i] = math.Float64frombits(w[profBuckets+i])
	}
	return appProfile{hist: hist, hot: w[2*profBuckets+2]}, nil
}

// The observation-section bits of a run record (schema v6).
const (
	sectionAttrib   = 1 << 0
	sectionTimeline = 1 << 1
)

// The smallest encoding of one element of each counted part of a run
// record: every field is one 8-byte word, a string its length word and
// its bytes.
const (
	sampleBytes = 8 * (3 + int(vmm.NumCategories))
	metricBytes = 8 * (3 + 4) // three empty strings, then kind, value, count, buckets
	bucketBytes = 8 * 2
	regionBytes = 8 * (1 + int(attrib.NumCategories))
	phaseBytes  = 8 * (3 + int(attrib.NumCategories))
	sliceBytes  = 8 * 11
)

// appendWords appends each value as one little-endian word.
func appendWords(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// appendFloats appends each value's IEEE-754 bits as one word.
func appendFloats(b []byte, fs ...float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// appendString appends a string's length word and its bytes.
func appendString(b []byte, s string) []byte {
	return append(appendWords(b, uint64(len(s))), s...)
}

// appendResult appends the CRUN2 magic and payload of one vmm.Result.
// Field order is fixed; every number is one little-endian word, floats
// as their IEEE-754 bits. Samples, metrics and the observation sections
// are the variable-length parts, each behind its count.
func appendResult(b []byte, r *vmm.Result) []byte {
	halted := uint64(0)
	if r.Halted {
		halted = 1
	}
	b = append(b, runMagic...)
	b = appendWords(b, uint64(r.Strategy), halted, r.Instrs)
	b = appendFloats(b, r.Cycles)
	b = appendFloats(b, r.Cat[:]...)
	b = appendWords(b, r.BBTUops, r.BBTEntities, r.SBTUops, r.SBTEntities,
		r.BBTTranslations, r.SBTTranslations, r.BBTX86Translated, r.SBTX86Translated,
		r.XltInvocations, r.XltBusyCycles, r.Callouts,
		r.JTLBHits, r.JTLBMisses, r.ShadowEvictions,
		r.SBTInstrs, r.BBTInstrs, r.X86Instrs, r.InterpInstrs,
		r.RestoredTranslations, r.RestoredX86,
		uint64(r.BBTFlushes)<<32|uint64(r.SBTFlushes))
	b = appendFloats(b, r.X86ModeCycles)
	b = appendWords(b, uint64(len(r.Samples)))
	for i := range r.Samples {
		s := &r.Samples[i]
		b = appendFloats(b, s.Cycles)
		b = appendWords(b, s.Instrs)
		b = appendFloats(b, s.Cat[:]...)
		b = appendFloats(b, s.XltBusy)
	}
	// Observability snapshot (schema v2): count, then per metric the
	// name/unit/labels strings, kind, value bits, observation count and
	// buckets.
	b = appendWords(b, uint64(len(r.Metrics)))
	for i := range r.Metrics {
		m := &r.Metrics[i]
		b = appendString(b, m.Name)
		b = appendString(b, m.Unit)
		b = appendString(b, m.Labels)
		b = appendWords(b, uint64(m.Kind), math.Float64bits(m.Value), m.Count, uint64(len(m.Buckets)))
		for _, bk := range m.Buckets {
			b = appendWords(b, bk.Le, bk.Count)
		}
	}
	// Observation sections: a bit set saying which follow (schema v6;
	// v5 had the attribution bit alone), then each present section.
	// The attribution snapshot (schema v5): category cycles,
	// reconciliation totals, region-grid geometry, the non-empty regions
	// and the milestone phases. The timeline (schema v6): the slice
	// count, then each slice's fields in declaration order.
	var sections uint64
	if r.Attrib != nil {
		sections |= sectionAttrib
	}
	if r.Timeline != nil {
		sections |= sectionTimeline
	}
	b = appendWords(b, sections)
	if a := r.Attrib; a != nil {
		b = appendFloats(b, a.Cat[:]...)
		b = appendFloats(b, a.TotalCycles, a.Residual)
		b = appendWords(b, uint64(a.RegionBase), uint64(a.RegionShift), uint64(len(a.Regions)))
		for i := range a.Regions {
			b = appendWords(b, uint64(a.Regions[i].Slot))
			b = appendFloats(b, a.Regions[i].Cat[:]...)
		}
		b = appendWords(b, uint64(len(a.Phases)))
		for i := range a.Phases {
			ph := &a.Phases[i]
			b = appendWords(b, ph.Milestone, ph.Instrs, math.Float64bits(ph.Cycles))
			b = appendFloats(b, ph.Cat[:]...)
		}
	}
	if r.Timeline != nil {
		slices := r.Timeline.Slices()
		b = appendWords(b, uint64(len(slices)))
		for i := range slices {
			ts := &slices[i]
			b = appendWords(b, math.Float64bits(ts.EndCycles), ts.Instrs, ts.InterpInstrs, ts.BBTInstrs, ts.SBTInstrs, ts.X86Instrs,
				math.Float64bits(ts.VMMCycles), math.Float64bits(ts.XlateCycles), math.Float64bits(ts.EmuCycles),
				uint64(ts.BBTUsed), uint64(ts.SBTUsed))
		}
	}
	return b
}

// recReader reads a record payload in place, one little-endian word at
// a time. Its error is sticky: the first failed read records why, and
// every later read returns zero, so a decoder checks err once at the
// end instead of after every word.
type recReader struct {
	b   []byte
	err error
}

// fail records why the read failed (the first reason only) and empties
// the reader.
func (r *recReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("experiments: "+format, args...)
	}
	r.b = nil
}

// errTruncated is the error of a read past the end of the payload.
var errTruncated = errors.New("experiments: run record truncated")

func (r *recReader) u64() uint64 {
	if len(r.b) < 8 {
		if r.err == nil {
			r.err = errTruncated
		}
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *recReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *recReader) floats(dst []float64) {
	if len(r.b) < 8*len(dst) {
		r.fail("%d floats past the end of the run record", len(dst))
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*len(dst):]
}

// upTo reads a word holding a narrower field, refusing a value above
// max: the field could not hold it, so the encoder never wrote it.
func (r *recReader) upTo(max uint64, what string) uint64 {
	v := r.u64()
	if v > max {
		r.fail("%s %d out of range", what, v)
		return 0
	}
	return v
}

// count reads the count of a record's next part and refuses it unless
// that many elements of at least size bytes each fit in what is left
// of the payload — before anything is sized by it, so a CRC-valid
// record cannot claim more memory than its own length.
func (r *recReader) count(size int, what string) int {
	n := r.u64()
	if n > uint64(len(r.b)/size) {
		r.fail("%d %s cannot fit in %d record bytes", n, what, len(r.b))
		return 0
	}
	return int(n)
}

func (r *recReader) str() string {
	n := r.count(1, "string bytes")
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// readResult decodes what appendResult wrote after the magic. The
// caller checks r.err: on a failed read the result is incomplete.
func readResult(r *recReader) *vmm.Result {
	res := &vmm.Result{}
	res.Strategy = vmm.Strategy(r.upTo(math.MaxUint8, "strategy"))
	res.Halted = r.upTo(1, "halted flag") == 1
	res.Instrs = r.u64()
	res.Cycles = r.f64()
	r.floats(res.Cat[:])
	for _, dst := range []*uint64{
		&res.BBTUops, &res.BBTEntities, &res.SBTUops, &res.SBTEntities,
		&res.BBTTranslations, &res.SBTTranslations, &res.BBTX86Translated, &res.SBTX86Translated,
		&res.XltInvocations, &res.XltBusyCycles, &res.Callouts,
		&res.JTLBHits, &res.JTLBMisses, &res.ShadowEvictions,
		&res.SBTInstrs, &res.BBTInstrs, &res.X86Instrs, &res.InterpInstrs,
		&res.RestoredTranslations, &res.RestoredX86,
	} {
		*dst = r.u64()
	}
	flushes := r.u64()
	res.BBTFlushes, res.SBTFlushes = uint32(flushes>>32), uint32(flushes)
	res.X86ModeCycles = r.f64()
	res.Samples = make([]vmm.Sample, r.count(sampleBytes, "samples"))
	for i := range res.Samples {
		s := &res.Samples[i]
		s.Cycles = r.f64()
		s.Instrs = r.u64()
		r.floats(s.Cat[:])
		s.XltBusy = r.f64()
	}
	// A zero count decodes to a nil snapshot (and nil buckets, regions
	// and phases), so a result persisted by an uninstrumented run
	// round-trips to exactly the in-memory original.
	if n := r.count(metricBytes, "metrics"); n > 0 {
		res.Metrics = make(obs.Snapshot, n)
	}
	for i := range res.Metrics {
		m := &res.Metrics[i]
		m.Name, m.Unit, m.Labels = r.str(), r.str(), r.str()
		m.Kind = obs.Kind(r.upTo(math.MaxUint8, "metric kind"))
		m.Value = r.f64()
		m.Count = r.u64()
		if n := r.count(bucketBytes, "buckets"); n > 0 {
			m.Buckets = make([]obs.Bucket, n)
		}
		for j := range m.Buckets {
			m.Buckets[j] = obs.Bucket{Le: r.u64(), Count: r.u64()}
		}
	}
	sections := r.u64()
	if sections&^(sectionAttrib|sectionTimeline) != 0 {
		r.fail("bad section bits %#x", sections)
	}
	if sections&sectionAttrib != 0 {
		a := &attrib.Snapshot{}
		r.floats(a.Cat[:])
		a.TotalCycles = r.f64()
		a.Residual = r.f64()
		a.RegionBase = uint32(r.upTo(math.MaxUint32, "region base"))
		a.RegionShift = uint8(r.upTo(math.MaxUint8, "region shift"))
		if n := r.count(regionBytes, "regions"); n > 0 {
			a.Regions = make([]attrib.RegionCycles, n)
		}
		for i := range a.Regions {
			a.Regions[i].Slot = int(r.upTo(math.MaxInt, "region slot"))
			r.floats(a.Regions[i].Cat[:])
		}
		if n := r.count(phaseBytes, "phases"); n > 0 {
			a.Phases = make([]attrib.Phase, n)
		}
		for i := range a.Phases {
			ph := &a.Phases[i]
			ph.Milestone = r.u64()
			ph.Instrs = r.u64()
			ph.Cycles = r.f64()
			r.floats(ph.Cat[:])
		}
		res.Attrib = a
	}
	if sections&sectionTimeline != 0 {
		n := r.count(sliceBytes, "timeline slices")
		if n > obs.TimelineSlices {
			r.fail("implausible timeline slice count %d", n)
			n = 0
		}
		slices := make([]obs.TimeSlice, n)
		for i := range slices {
			ts := &slices[i]
			ts.EndCycles = r.f64()
			ts.Instrs = r.u64()
			ts.InterpInstrs = r.u64()
			ts.BBTInstrs = r.u64()
			ts.SBTInstrs = r.u64()
			ts.X86Instrs = r.u64()
			ts.VMMCycles = r.f64()
			ts.XlateCycles = r.f64()
			ts.EmuCycles = r.f64()
			ts.BBTUsed = uint32(r.upTo(math.MaxUint32, "BBT occupancy"))
			ts.SBTUsed = uint32(r.upTo(math.MaxUint32, "SBT occupancy"))
		}
		res.Timeline = obs.TimelineOf(slices)
	}
	return res
}
