package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"

	"ctcp/internal/snap"
)

// Fingerprint returns a 64-bit FNV-64a hash identifying the configuration:
// two configs fingerprint equal exactly when every result-determining field
// is equal, so memoized results, store records and checkpoint headers keyed
// by it never serve a result simulated under a different configuration.
//
// The hash is hashFields over {ModelRevision, Config}: the model revision,
// so an earlier revision's results are not served either, then each leaf of
// the config under its path rooted at "Config", so a renamed or moved field
// re-keys rather than collides. A zero scalar is skipped, path and all, so
// adding a field whose zero value keeps the old behaviour, or deleting one
// that was always zero, re-keys nothing. Func fields (RetireHook) are
// observers, not configuration, and are excluded; any other kind panics
// naming its path, so a map or pointer field forces a decision here instead
// of being hashed by accident as its address.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	hashFields(h, reflect.ValueOf(&struct {
		ModelRevision uint64
		Config        Config
	}{modelRevision, c}).Elem())
	return h.Sum64()
}

// modelRevision numbers the model's results. Bump it in any change that
// moves a simulated counter under an unchanged Config, so that stores,
// checkpoints and named saves written before the change are resimulated or
// refused instead of served. It starts at 1: a zero would not be hashed.
//
//	1: the idle fast-forward is exact, and stall counters count the
//	   cycles it skips.
const modelRevision = 1

// hashFields writes each non-zero scalar leaf of the struct v to h: the u64
// length and the bytes of its dotted path, then its value as a
// little-endian u64 (floats as bits, true as 1; a string as its length,
// then its bytes).
func hashFields(h hash.Hash, v reflect.Value) {
	b := make([]byte, 0, 128)
	snap.Walk(v, func(f snap.Field) {
		x, u := f.Value, uint64(0)
		switch x.Kind() {
		case reflect.Func:
			return
		case reflect.Bool:
			u = 1
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			u = uint64(x.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			u = x.Uint()
		case reflect.Float32, reflect.Float64:
			u = math.Float64bits(x.Float())
		case reflect.String:
			u = uint64(x.Len())
		default:
			panic(fmt.Sprintf("pipeline: config field %s has unsupported kind %v for fingerprinting", f.Path(), x.Kind()))
		}
		if x.IsZero() {
			return // an absent field and a zero one hash alike
		}
		b = f.AppendPath(b[:8])
		binary.LittleEndian.PutUint64(b, uint64(len(b)-8))
		b = binary.LittleEndian.AppendUint64(b, u)
		if x.Kind() == reflect.String {
			b = append(b, x.String()...)
		}
		h.Write(b)
	})
}
