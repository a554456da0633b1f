package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"

	"codesignvm/internal/store"
	"codesignvm/internal/vmm"
)

// A store key is store.HashKey of its record's identity bytes: the
// kind's name and runSchema, then the identity's fields — every number
// one little-endian word, floats as their IEEE-754 bits, every string
// behind its length — so no two kinds or field splits share an
// encoding. keyBufLen covers a run key's identity without
// growing it.
const keyBufLen = 512

// keyStart begins an identity of the given kind in buf.
func keyStart(buf []byte, kind string) []byte {
	return appendWords(appendString(buf, kind), runSchema)
}

// configShape is the SHA-256 of vmm.Config's leaf fields — name and
// kind, nested ones dotted ("Timing.Width int") — in declaration order,
// taken from the type. A run identity carries it ahead of the leaf
// values, so renaming, reordering, adding or removing a field changes
// every key.
var configShape = sha256.Sum256([]byte(strings.Join(leafNames(reflect.TypeOf(vmm.Config{}), ""), "\n")))

// leafNames lists the leaf fields of the struct type t as configShape
// hashes them.
func leafNames(t reflect.Type, prefix string) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			names = append(names, leafNames(f.Type, prefix+f.Name+".")...)
		} else {
			names = append(names, prefix+f.Name+" "+f.Type.Kind().String())
		}
	}
	return names
}

// appendLeaves appends every leaf of the struct v in declaration order,
// one word each: integers as their two's-complement bits, floats as
// their IEEE-754 bits, booleans as 0 or 1; strings behind their
// length. Any other kind panics: a Config field the key cannot cover
// must not go unkeyed.
func appendLeaves(b []byte, v reflect.Value) []byte {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			b = appendLeaves(b, f)
		case reflect.Bool:
			bit := uint64(0)
			if f.Bool() {
				bit = 1
			}
			b = appendWords(b, bit)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = appendWords(b, uint64(f.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			b = appendWords(b, f.Uint())
		case reflect.Float32, reflect.Float64:
			b = appendFloats(b, f.Float())
		case reflect.String:
			b = appendString(b, f.String())
		default:
			panic(fmt.Sprintf("experiments: cannot key %s field %s.%s", f.Kind(), v.Type(), v.Type().Field(i).Name))
		}
	}
	return b
}

// appendRunIdentity appends what a run's key and its snapshot's key
// share: the machine configuration, the application, the scale and the
// instruction budget.
func appendRunIdentity(b []byte, cfg *vmm.Config, app string, scale int, instrs uint64) []byte {
	b = append(b, configShape[:]...)
	b = appendLeaves(b, reflect.ValueOf(cfg).Elem())
	b = appendString(b, app)
	return appendWords(b, uint64(scale), instrs)
}

// fileKey derives the content-hash key of one simulation's record. The
// attribution-spec string and the timeline bit join it: neither changes
// the simulated cycles, but an observing result carries extra payload
// a plain request must not be served (and vice versa), so they key
// separately.
func (k runKey) fileKey() string {
	var buf [keyBufLen]byte
	b := appendRunIdentity(keyStart(buf[:0], "run"), &k.cfg, k.app, k.scale, k.instrs)
	timeline := uint64(0)
	if k.timeline {
		timeline = 1
	}
	return store.HashKey(appendWords(appendString(b, k.attrib), timeline))
}
