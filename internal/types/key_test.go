package types

import (
	"bytes"
	"math"
	"testing"
)

// The key-encoding contract: AppendKey(a) and AppendKey(b) are byte-equal
// exactly when Equal(a, b), and every numeric key is 9 bytes (checkpoints
// persist index buckets under these keys). keyEdgeValues are the values a
// float64-based encoding gets wrong: INTs past ±2^53 that round to a
// shared float64, signed zeros, NaN payloads, and the int64 extremes.
var keyEdgeValues = []Value{
	Null(),
	NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1)),
	NewInt(2), NewFloat(2), NewFloat(2.5), NewInt(-3), NewFloat(-3),
	NewFloat(math.NaN()), NewFloat(-math.NaN()),
	NewFloat(math.Float64frombits(0x7ff0000000000001)), // signalling NaN payload
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewInt(1<<53 - 1), NewInt(1 << 53), NewInt(1<<53 + 1), NewInt(1<<53 + 2),
	NewInt(-1<<53 + 1), NewInt(-1 << 53), NewInt(-1<<53 - 1),
	NewFloat(1 << 53), NewFloat(1<<53 + 2), NewFloat(-1 << 53),
	NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(math.MaxInt64 - 1),
	NewFloat(0x1p63), NewFloat(-0x1p63), NewFloat(math.MaxFloat64),
	NewString(""), NewString("a"), NewString("\x00"), NewString("ab"),
	NewBool(false), NewBool(true),
}

// checkKeyPair asserts the key contract, and Compare's antisymmetry, for
// one pair of values.
func checkKeyPair(t *testing.T, a, b Value) {
	t.Helper()
	ka, kb := AppendKey(nil, a), AppendKey(nil, b)
	if eq := Equal(a, b); eq != bytes.Equal(ka, kb) {
		t.Fatalf("%#v vs %#v: Equal=%v but keys %x / %x", a, b, eq, ka, kb)
	}
	if Compare(a, b) != -Compare(b, a) {
		t.Fatalf("Compare(%#v, %#v) is not antisymmetric", a, b)
	}
	for _, kv := range []struct {
		v Value
		k []byte
	}{{a, ka}, {b, kb}} {
		if kv.v.K.Numeric() && len(kv.k) != 9 {
			t.Fatalf("numeric key for %#v is %d bytes, want 9", kv.v, len(kv.k))
		}
	}
}

func TestAppendKeyEdgeValues(t *testing.T) {
	for _, a := range keyEdgeValues {
		for _, b := range keyEdgeValues {
			checkKeyPair(t, a, b)
		}
	}
}

func TestCompareEdgeValuesTotalOrder(t *testing.T) {
	for _, a := range keyEdgeValues {
		for _, b := range keyEdgeValues {
			for _, c := range keyEdgeValues {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("Compare not transitive: %#v <= %#v <= %#v but %#v > %#v", a, b, c, a, c)
				}
			}
		}
	}
}

func TestNumericEquality(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{NewInt(1 << 53), NewInt(1<<53 + 1), false},
		{NewFloat(1 << 53), NewInt(1<<53 + 1), false},
		{NewFloat(1 << 53), NewInt(1 << 53), true},
		{NewInt(math.MaxInt64), NewFloat(0x1p63), false},
		{NewInt(math.MinInt64), NewFloat(-0x1p63), true},
		{negZero, NewFloat(0), true},
		{negZero, NewInt(0), true},
		{NewFloat(math.NaN()), NewFloat(-math.NaN()), true},
		{NewFloat(math.NaN()), NewFloat(math.Inf(1)), false},
		{NewFloat(math.NaN()), NewInt(math.MaxInt64), false},
	} {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// NaN sorts above every other number; an INT past 2^53 sits strictly
	// between its float64 neighbours.
	if Compare(NewFloat(math.NaN()), NewFloat(math.Inf(1))) != 1 {
		t.Errorf("NaN must sort above +Inf")
	}
	if Compare(NewInt(1<<53+1), NewFloat(1<<53)) != 1 || Compare(NewInt(1<<53+1), NewFloat(1<<53+2)) != -1 {
		t.Errorf("INT 2^53+1 must sort between FLOAT 2^53 and 2^53+2")
	}
}

// fuzzValue builds a value of the kind k selects from the fuzzed payloads.
func fuzzValue(k uint8, i int64, f float64, s string) Value {
	switch Kind(k % 5) {
	case KindInt:
		return NewInt(i)
	case KindFloat:
		return NewFloat(f)
	case KindString:
		return NewString(s)
	case KindBool:
		return NewBool(i&1 == 1)
	default:
		return Null()
	}
}

// FuzzAppendKey checks the key contract on fuzzed pairs of any kinds, and
// on the INT/FLOAT pairs derived from each input's numeric payloads.
func FuzzAppendKey(f *testing.F) {
	f.Add(uint8(KindInt), int64(1<<53), 0.0, "", uint8(KindInt), int64(1<<53+1), 0.0, "")
	f.Add(uint8(KindFloat), int64(0), math.Copysign(0, -1), "", uint8(KindFloat), int64(0), 0.0, "")
	f.Add(uint8(KindFloat), int64(0), math.NaN(), "", uint8(KindFloat), int64(0), -math.NaN(), "")
	f.Add(uint8(KindInt), int64(math.MaxInt64), 0x1p63, "", uint8(KindFloat), int64(math.MinInt64), 0x1p63, "")
	f.Add(uint8(KindString), int64(0), 0.0, "ab", uint8(KindString), int64(0), 0.0, "a")
	f.Add(uint8(KindBool), int64(1), 0.0, "", uint8(KindInt), int64(1), 1.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		checkKeyPair(t, fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb))
		checkKeyPair(t, NewInt(ia), NewInt(ib))
		checkKeyPair(t, NewFloat(fa), NewFloat(fb))
		checkKeyPair(t, NewInt(ia), NewFloat(fb))
		checkKeyPair(t, NewInt(ia), NewFloat(float64(ia)))
		if fa >= -0x1p63 && fa < 0x1p63 {
			checkKeyPair(t, NewFloat(fa), NewInt(int64(fa)))
		}
	})
}
