package pipeline

import (
	"fmt"
	"math"
	"reflect"
)

// Fingerprint returns a 64-bit FNV-64a hash over the canonical serialization
// of the full configuration. Two configs fingerprint equal exactly when every
// result-determining field is equal, so the hash is a safe identity for
// memoized results, store records, and checkpoint headers: anything keyed
// by it can never serve a result simulated under a different configuration.
//
// The serialization walks the struct by reflection in declaration order,
// hashing each field's path (so a renamed or moved field changes the
// fingerprint rather than silently colliding with the old layout) followed by
// its value in a fixed-width encoding. A scalar field holding its zero value
// is skipped, path and all, so adding a field whose zero value keeps the old
// behaviour, or deleting one that was always zero, leaves every fingerprint
// unchanged; non-zero values still hash under their paths and cannot
// collide. Function-typed fields (RetireHook) are observers, not
// configuration — they cannot change simulated state — and are excluded.
// Every other field kind must be explicitly supported:
// fingerprintValue panics on an unhandled kind, so adding a map or pointer
// field to Config forces a decision here instead of being hashed by accident
// as its address.
//
// The hash also covers modelRevision, so results simulated by an earlier
// revision of the model are not served under an unchanged Config either.
func (c Config) Fingerprint() uint64 {
	h := fnvOffset
	fnvString(&h, "ModelRevision")
	fnvU64(&h, modelRevision)
	fingerprintValue(&h, "Config", reflect.ValueOf(c))
	return h
}

// modelRevision numbers the model's results. Bump it in any change that
// moves a simulated counter under an unchanged Config, so that stores,
// checkpoints and named saves written before the change are resimulated or
// refused instead of served.
//
//	1: the idle fast-forward is exact, and stall counters count the
//	   cycles it skips.
const modelRevision = 1

// FNV-64a, inlined rather than hash/fnv so the canonical constants are pinned
// in this file next to the format they define.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h *uint64, b byte) {
	*h = (*h ^ uint64(b)) * fnvPrime
}

func fnvU64(h *uint64, v uint64) {
	for i := 0; i < 64; i += 8 {
		fnvByte(h, byte(v>>i))
	}
}

func fnvString(h *uint64, s string) {
	fnvU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		fnvByte(h, s[i])
	}
}

func fingerprintValue(h *uint64, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		if v.IsZero() {
			return // an absent field and a zero one hash alike
		}
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			fingerprintValue(h, path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Func:
		// Observers only; excluded from the identity.
	case reflect.Bool:
		fnvString(h, path)
		fnvU64(h, 1) // only true reaches here
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fnvString(h, path)
		fnvU64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fnvString(h, path)
		fnvU64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		fnvString(h, path)
		fnvU64(h, math.Float64bits(v.Float()))
	case reflect.String:
		fnvString(h, path)
		fnvString(h, v.String())
	default:
		panic(fmt.Sprintf("pipeline: config field %s has unsupported kind %v for fingerprinting", path, v.Kind()))
	}
}
