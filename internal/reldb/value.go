// Package reldb implements a small in-memory relational engine: typed
// values, schemas with primary keys, tables with key indexes, predicates,
// relational operators (projection, selection, rename, natural join),
// mutation primitives, table diffing, and a deterministic canonical
// encoding used for hashing and for shipping share payloads between peers.
//
// It is the storage substrate of the paper's architecture: every peer keeps
// its full medical records ("sources") and the fine-grained shared pieces
// ("views") as reldb tables in a local reldb.Database.
package reldb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "null":
		return KindNull, nil
	case "string":
		return KindString, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "bool":
		return KindBool, nil
	case "time":
		return KindTime, nil
	default:
		return KindNull, fmt.Errorf("reldb: unknown kind %q", s)
	}
}

// Value is an immutable typed scalar. The zero Value is SQL NULL.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	t    time.Time
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// S returns a string value.
func S(s string) Value { return Value{kind: KindString, s: s} }

// I returns an integer value.
func I(i int64) Value { return Value{kind: KindInt, i: i} }

// F returns a float value.
func F(f float64) Value { return Value{kind: KindFloat, f: f} }

// B returns a boolean value.
func B(b bool) Value { return Value{kind: KindBool, b: b} }

// T returns a time value, truncated to microseconds in UTC so that the
// canonical encoding round-trips through JSON.
func T(t time.Time) Value { return Value{kind: KindTime, t: t.UTC().Truncate(time.Microsecond)} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; ok is false if the kind is not string.
func (v Value) Str() (string, bool) { return v.s, v.kind == KindString }

// Int returns the integer payload; ok is false if the kind is not int.
func (v Value) Int() (int64, bool) { return v.i, v.kind == KindInt }

// Float returns the float payload; ok is false if the kind is not float.
func (v Value) Float() (float64, bool) { return v.f, v.kind == KindFloat }

// Bool returns the bool payload; ok is false if the kind is not bool.
func (v Value) Bool() (bool, bool) { return v.b, v.kind == KindBool }

// Time returns the time payload; ok is false if the kind is not time.
func (v Value) Time() (time.Time, bool) { return v.t, v.kind == KindTime }

// Equal reports deep equality of two values, including kind.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	case KindBool:
		return v.b == o.b
	case KindTime:
		return v.t.Equal(o.t)
	}
	return false
}

// Compare orders values: first by kind, then by payload. NULL sorts lowest.
// The result is -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	case KindInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case v.f < o.f:
			return -1
		case v.f > o.f:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case !v.b && o.b:
			return -1
		case v.b && !o.b:
			return 1
		}
		return 0
	case KindTime:
		switch {
		case v.t.Before(o.t):
			return -1
		case v.t.After(o.t):
			return 1
		}
		return 0
	}
	return 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindTime:
		return v.t.Format(time.RFC3339Nano)
	}
	return "?"
}

// AppendCanonical appends a deterministic, self-delimiting binary encoding
// of the value to dst. The encoding is kind byte followed by a fixed-width
// or length-prefixed payload, so distinct values never share an encoding.
func (v Value) AppendCanonical(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindString:
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindTime:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.t.UnixMicro()))
	}
	return dst
}

// AppendOrdered appends an order-preserving, self-delimiting binary
// encoding of the value to dst: bytewise lexicographic comparison of two
// encodings agrees with Value.Compare (kind first, then payload), and no
// encoding is a proper prefix of another. It is the *storage key*
// encoding — tables key their persistent row map with it so that
// in-order tree traversal yields canonical (key-sorted) row order and
// composite secondary-index keys support prefix scans. It is distinct
// from AppendCanonical (the hashing/wire encoding): a length-prefixed
// string encoding cannot be order-preserving ("b" must sort before
// "aa"), so strings here are escaped and terminated instead, and signed
// payloads have their sign bit flipped.
//
// NaN floats order by their raw bit patterns — sign-clear NaNs above
// +Inf, sign-set NaNs below -Inf — whereas Compare treats NaN as
// incomparable; and negative zero keeps its sign bit (encoding below
// +0.0) whereas Compare and Equal treat -0 == +0. Tables never rely on
// a particular order for either, only on determinism.
func (v Value) AppendOrdered(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindString:
		// 0x00 bytes are escaped as 0x00 0xFF and the string is closed
		// with 0x00 0x01, so comparisons stop at the right boundary: a
		// proper prefix sorts first, and an embedded NUL (0x00 0xFF)
		// sorts after any terminator (0x00 0x01).
		for i := 0; i < len(v.s); i++ {
			if c := v.s[i]; c == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, c)
			}
		}
		dst = append(dst, 0x00, 0x01)
	case KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.i)^(1<<63))
	case KindFloat:
		bits := math.Float64bits(v.f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything (larger magnitude sorts first)
		} else {
			bits |= 1 << 63 // non-negative: set the sign bit above all negatives
		}
		dst = binary.BigEndian.AppendUint64(dst, bits)
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindTime:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.t.UnixMicro())^(1<<63))
	}
	return dst
}

// valueJSON is the JSON representation of a Value (HTTP bodies, CLI
// files, lens specs); peers and the store use the canonical encoding.
type valueJSON struct {
	Kind string `json:"k"`
	Val  string `json:"v,omitempty"`
}

// MarshalJSON encodes the value as {"k":kind,"v":payload}.
func (v Value) MarshalJSON() ([]byte, error) {
	w := valueJSON{Kind: v.kind.String()}
	switch v.kind {
	case KindTime:
		w.Val = v.t.Format(time.RFC3339Nano)
	case KindNull:
	default:
		w.Val = v.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a value encoded by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var w valueJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, err := ParseKind(w.Kind)
	if err != nil {
		return err
	}
	switch k {
	case KindNull:
		*v = Null()
	case KindString:
		*v = S(w.Val)
	case KindInt:
		i, err := strconv.ParseInt(w.Val, 10, 64)
		if err != nil {
			return fmt.Errorf("reldb: bad int value %q: %w", w.Val, err)
		}
		*v = I(i)
	case KindFloat:
		f, err := strconv.ParseFloat(w.Val, 64)
		if err != nil {
			return fmt.Errorf("reldb: bad float value %q: %w", w.Val, err)
		}
		*v = F(f)
	case KindBool:
		b, err := strconv.ParseBool(w.Val)
		if err != nil {
			return fmt.Errorf("reldb: bad bool value %q: %w", w.Val, err)
		}
		*v = B(b)
	case KindTime:
		t, err := time.Parse(time.RFC3339Nano, w.Val)
		if err != nil {
			return fmt.Errorf("reldb: bad time value %q: %w", w.Val, err)
		}
		*v = T(t)
	}
	return nil
}

// Row is an ordered tuple of values matching a table's column order.
type Row []Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have identical length and values.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// AppendCanonical appends the canonical encodings of all values in order.
func (r Row) AppendCanonical(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(r)))
	for _, v := range r {
		dst = v.AppendCanonical(dst)
	}
	return dst
}
