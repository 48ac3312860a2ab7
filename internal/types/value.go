// Package types defines the scalar value model shared by the storage layer,
// the expression evaluator, and the executor.
//
// Values are small tagged unions. The engine assumes, following the paper
// (Section 2), that the database contains no NULLs; Null is still a first
// class Kind so that aggregate functions over empty inputs and outer layers
// of the system can represent "no value" without panicking.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// Supported kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is INT or FLOAT.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Width returns the byte width used for page-space accounting. Strings use
// a representative width; exact string lengths are accounted per value.
func (k Kind) Width() int {
	switch k {
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 16
	default:
		return 1
	}
}

// Value is a scalar runtime value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // INT and BOOLEAN (0/1) payload
	F float64 // FLOAT payload
	S string  // VARCHAR payload
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{K: KindInt, I: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{K: KindFloat, F: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{K: KindString, S: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	b := int64(0)
	if v {
		b = 1
	}
	return Value{K: KindBool, I: b}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload; it is false for non-boolean values.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// Int returns the integer payload, converting FLOAT by truncation.
func (v Value) Int() int64 {
	if v.K == KindFloat {
		return int64(v.F)
	}
	return v.I
}

// Float returns the numeric payload as float64.
func (v Value) Float() float64 {
	if v.K == KindFloat {
		return v.F
	}
	return float64(v.I)
}

// String renders the value for display and plan annotations.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "'" + v.S + "'"
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.K))
	}
}

// DiskWidth returns the number of bytes the value occupies in page-space
// accounting (not a physical serialization size; pages store Values directly).
func (v Value) DiskWidth() int {
	if v.K == KindString {
		return len(v.S) + 2
	}
	return v.K.Width()
}

// Compare orders two values. NULL sorts before everything; INT and FLOAT
// compare numerically across kinds, exactly (an INT never rounds to meet a
// FLOAT), with -0.0 equal to 0.0 and NaN equal to itself and above every
// other number; otherwise values of different kinds compare by kind tag (a
// total order, so sorting mixed columns is stable). The result is -1, 0 or
// +1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K.Numeric() && b.K.Numeric() {
		switch {
		case a.K == KindInt && b.K == KindInt:
			return cmpInt(a.I, b.I)
		case a.K == KindInt:
			return cmpIntFloat(a.I, b.F)
		case b.K == KindInt:
			return -cmpIntFloat(b.I, a.F)
		default:
			return cmpFloat(a.F, b.F)
		}
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	case KindBool:
		return cmpInt(a.I, b.I)
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat orders floats with NaN equal to itself and greater than every
// other value, so FLOAT columns have a total order.
func cmpFloat(a, b float64) int {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case a < b || bNaN && !aNaN:
		return -1
	case a > b || aNaN && !bNaN:
		return 1
	default:
		return 0
	}
}

// cmpIntFloat compares i with f exactly: by the integer part of f first,
// then by its fraction. Every float64 in [-2^63, 2^63) truncates to an
// int64 without loss, and its fraction is exact too.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f) || f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := int64(f)
	if c := cmpInt(i, t); c != 0 {
		return c
	}
	return cmpFloat(float64(t), f)
}

// Equal reports whether two values compare equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key encoding tags. Every numeric key is one tag byte plus 8 payload
// bytes: checkpoints persist index buckets under these keys.
const (
	keyNull   = 0x00
	keyNum    = 0x01 // float64 bits of a FLOAT, or of an INT that converts exactly
	keyString = 0x02
	keyBool   = 0x03
	keyWide   = 0x04 // int64 bits of an INT no float64 represents exactly
)

// canonNaN is the single bit pattern every NaN key encodes as.
var canonNaN = math.Float64bits(math.NaN())

// AppendKey appends a self-delimiting encoding of v to dst such that two
// values are Equal iff their encodings are byte-equal. It is used for hash
// table keys in joins, aggregation and indexes. Numbers encode canonically
// so that the encoding mirrors Compare: INT 2 and FLOAT 2.0 share the
// float64 bits of 2.0, an INT that float64 cannot hold exactly (beyond
// ±2^53, e.g. 2^53+1) keeps its own int64 bits under a separate tag, -0.0
// encodes as 0.0, and every NaN encodes as one pattern.
func AppendKey(dst []byte, v Value) []byte {
	switch v.K {
	case KindNull:
		return append(dst, keyNull)
	case KindInt:
		if f := float64(v.I); f < 0x1p63 && int64(f) == v.I {
			return appendKey64(dst, keyNum, math.Float64bits(f))
		}
		return appendKey64(dst, keyWide, uint64(v.I))
	case KindFloat:
		switch {
		case v.F == 0:
			return appendKey64(dst, keyNum, 0)
		case math.IsNaN(v.F):
			return appendKey64(dst, keyNum, canonNaN)
		}
		return appendKey64(dst, keyNum, math.Float64bits(v.F))
	case KindString:
		dst = append(dst, keyString)
		n := len(v.S)
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(dst, v.S...)
	case KindBool:
		return append(dst, keyBool, byte(v.I))
	default:
		return append(dst, 0xff)
	}
}

func appendKey64(dst []byte, tag byte, bits uint64) []byte {
	return append(dst, tag,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of the row sharing string storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// DiskWidth returns the accounted on-page width of the row in bytes.
func (r Row) DiskWidth() int {
	w := 4 // per-tuple header
	for _, v := range r {
		w += v.DiskWidth()
	}
	return w
}

// AppendKey appends the key encoding of the listed column positions.
func (r Row) AppendKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = AppendKey(dst, r[c])
	}
	return dst
}

// CompareRows orders two rows by the given column positions.
func CompareRows(a, b Row, cols []int) int {
	for _, c := range cols {
		if d := Compare(a[c], b[c]); d != 0 {
			return d
		}
	}
	return 0
}
