package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"codesignvm/internal/store"
	"codesignvm/internal/vmm"
)

// TestRecordBytesPinned pins the bytes the CRUN2 and CPRF1 encoders
// write for the sample values: runSchema promises that a record written
// at this version reads back at this version, so a codec rewrite must
// leave them byte-identical. A mismatch means the encoding moved, and
// runSchema must move with it.
func TestRecordBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		rec  []byte
		want string
	}{
		{"run", encodeResult(sampleResult()), "3e5e9a24f46574b68159f84c11a47ce50dd9193da62cde151363f32367ca1d57"},
		{"run without observations", encodeResult(bareResult()), "b3970ea06df059cc45249e5fbd224d806ac9d9749818b5164d32b1e7b9240fbd"},
		{"profile", encodeProfile(sampleProfile()), "a3c866370173321bccf07b3688262098b7d82b38fcd91597803f5e7ca3d0a84d"},
	} {
		sum := sha256.Sum256(c.rec)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s record (%d bytes): SHA-256 %s, want %s", c.name, len(c.rec), got, c.want)
		}
	}
}

// bareResult is sampleResult without metrics, attribution or timeline:
// the record shape of an unobserved run.
func bareResult() *vmm.Result {
	r := sampleResult()
	r.Metrics, r.Attrib, r.Timeline = nil, nil, nil
	return r
}

// reseal replaces a sealed record's payload word at off with v and
// seals it again, so only the decoder's own checks stand in the way.
func reseal(rec []byte, off int, v uint64) []byte {
	payload := append([]byte(nil), rec[:len(rec)-4]...)
	binary.LittleEndian.PutUint64(payload[off:], v)
	return store.Seal(payload)
}

// sizedBy decodes a sealed run record the way decodeResult does and
// reports how many bytes the result holds, whether or not the decode
// failed: everything the decoder sizes from the record's counts stays
// reachable from its partial result. Unlike a heap counter, the figure
// is exact and counts nothing another goroutine allocates meanwhile.
func sizedBy(rec []byte) uint64 {
	payload, err := store.Unseal(rec, runMagic)
	if err != nil || string(payload[:len(runMagic)]) != runMagic {
		return 0
	}
	rd := recReader{b: payload[len(runMagic):]}
	return reachable(reflect.ValueOf(readResult(&rd)))
}

// reachable returns the bytes v refers to beyond its own inline size:
// each pointee, each slice's backing array to its capacity and each
// string's bytes, recursively.
func reachable(v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return uint64(v.Type().Elem().Size()) + reachable(v.Elem())
	case reflect.String:
		return uint64(v.Len())
	case reflect.Slice:
		n := uint64(v.Cap()) * uint64(v.Type().Elem().Size())
		return n + reachableElems(v)
	case reflect.Array:
		return reachableElems(v)
	case reflect.Struct:
		var n uint64
		for i := range v.NumField() {
			n += reachable(v.Field(i))
		}
		return n
	}
	return 0
}

// reachableElems sums reachable over a slice's or array's elements,
// skipping arrays of plain numbers.
func reachableElems(v reflect.Value) uint64 {
	if k := v.Type().Elem().Kind(); k >= reflect.Bool && k <= reflect.Complex128 {
		return 0
	}
	var n uint64
	for i := range v.Len() {
		n += reachable(v.Index(i))
	}
	return n
}

// TestRunRecordCountCannotOutgrowRecord: a CRC-valid run record whose
// sample, metric or timeline-slice count claims 1<<24 elements — 1.3 GiB
// of samples — is refused before anything is sized by the count: what
// the decoder sizes is about what the record itself holds.
func TestRunRecordCountCannotOutgrowRecord(t *testing.T) {
	r := sampleResult()
	rec := encodeResult(r)
	samplesAt := len(runMagic) + 8*(3+1+int(vmm.NumCategories)+21+1)
	metricsAt := samplesAt + 8 + len(r.Samples)*sampleBytes
	slicesAt := len(rec) - 4 - len(r.Timeline.Slices())*sliceBytes - 8
	for _, c := range []struct {
		what string
		off  int
		was  int
	}{
		{"samples", samplesAt, len(r.Samples)},
		{"metrics", metricsAt, len(r.Metrics)},
		{"timeline slices", slicesAt, r.Timeline.Len()},
	} {
		if got := binary.LittleEndian.Uint64(rec[c.off:]); got != uint64(c.was) {
			t.Fatalf("%s count at %d reads %d, want %d: the layout moved", c.what, c.off, got, c.was)
		}
		bomb := reseal(rec, c.off, 1<<24)
		if n := sizedBy(bomb); n > 64<<10 {
			t.Errorf("%s: decoding a %d-byte record sized %d bytes", c.what, len(bomb), n)
		}
		_, err := decodeResult(bomb)
		if err == nil || !strings.Contains(err.Error(), "cannot fit") {
			t.Errorf("%s: claimed 1<<24, decode error %v", c.what, err)
		}
	}
}

// FuzzRunRecord feeds arbitrary CRUN2 payloads, sealed, to the run
// record decoder. It must never panic, never size much beyond the
// payload's own length (sizedBy, failed decodes included), and any
// record it accepts must re-encode to the very same bytes. The seeds
// are the golden run record (sealedRecords), the same record without
// its observation sections, and eight truncations of the golden
// payload. (Every truncation is
// TestRunStoreCorruptionEveryTruncation's; as seeds they would leave the
// fuzzer mutating mostly records that can only fail.)
func FuzzRunRecord(f *testing.F) {
	bare := encodeResult(bareResult())
	f.Add(bare[:len(bare)-4])
	golden := sealedRecords[0].golden()
	payload := golden[:len(golden)-4]
	for k := 0; k <= 8; k++ {
		f.Add(payload[:len(payload)*k/8])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec := store.Seal(append([]byte(nil), payload...))
		if n := sizedBy(rec); n > 4*uint64(len(rec))+64<<10 {
			t.Fatalf("decoding a %d-byte record sized %d bytes", len(rec), n)
		}
		res, err := decodeResult(rec)
		if err != nil {
			return
		}
		if again := encodeResult(res); !bytes.Equal(again, rec) {
			t.Fatalf("accepted record re-encodes differently\nin:  %x\nout: %x", rec, again)
		}
	})
}
