// Package value defines the typed value and row model shared by the storage
// engine, the A-SQL executor, and the bdbms managers.
//
// A Value is a dynamically typed scalar (integer, float, text, boolean,
// biological sequence, or timestamp). Rows are ordered slices of values that
// match a table schema. The package also provides a stable binary codec so
// rows can be stored in heap pages and index keys can be compared bytewise.
package value

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies the dynamic type of a Value.
type Type uint8

// Supported value types.
const (
	// Null is the type of the SQL NULL value.
	Null Type = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE-754 floating point number.
	Float
	// Text is an arbitrary UTF-8 string.
	Text
	// Bool is a boolean.
	Bool
	// Sequence is a biological sequence (gene, protein, or secondary
	// structure). It is stored like Text but carries a distinct type so the
	// engine can route it to sequence-aware indexes (SBC-tree).
	Sequence
	// Timestamp is a point in time with nanosecond precision.
	Timestamp
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Text:
		return "TEXT"
	case Bool:
		return "BOOL"
	case Sequence:
		return "SEQUENCE"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// ParseType maps a type name (as written in A-SQL DDL) to a Type.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "INTEGER", "BIGINT":
		return Int, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC":
		return Float, nil
	case "TEXT", "VARCHAR", "STRING", "CHAR":
		return Text, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	case "SEQUENCE", "SEQ":
		return Sequence, nil
	case "TIMESTAMP", "DATETIME", "TIME":
		return Timestamp, nil
	default:
		return Null, fmt.Errorf("value: unknown type %q", name)
	}
}

// Value is a dynamically typed scalar.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
	b   bool
	t   time.Time
}

// Errors returned by the value package.
var (
	// ErrTypeMismatch is returned when two values of incompatible types are
	// compared or combined.
	ErrTypeMismatch = errors.New("value: type mismatch")
	// ErrBadEncoding is returned when a binary row or value cannot be decoded.
	ErrBadEncoding = errors.New("value: bad encoding")
)

// NewNull returns the NULL value.
func NewNull() Value { return Value{typ: Null} }

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{typ: Int, i: v} }

// NewFloat returns a Float value.
func NewFloat(v float64) Value { return Value{typ: Float, f: v} }

// NewText returns a Text value.
func NewText(v string) Value { return Value{typ: Text, s: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value { return Value{typ: Bool, b: v} }

// NewSequence returns a Sequence value.
func NewSequence(v string) Value { return Value{typ: Sequence, s: v} }

// NewTimestamp returns a Timestamp value.
func NewTimestamp(v time.Time) Value { return Value{typ: Timestamp, t: v.UTC()} }

// Type returns the dynamic type of v.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether v is the NULL value.
func (v Value) IsNull() bool { return v.typ == Null }

// Int returns the integer payload. It is only meaningful when Type() == Int.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload, converting from Int when necessary.
func (v Value) Float() float64 {
	if v.typ == Int {
		return float64(v.i)
	}
	return v.f
}

// Text returns the string payload for Text and Sequence values.
func (v Value) Text() string { return v.s }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.b }

// Time returns the timestamp payload.
func (v Value) Time() time.Time { return v.t }

// String renders the value for display and for the CLI grid.
func (v Value) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Text, Sequence:
		return v.s
	case Bool:
		if v.b {
			return "true"
		}
		return "false"
	case Timestamp:
		return v.t.Format(time.RFC3339Nano)
	default:
		return fmt.Sprintf("<%s>", v.typ)
	}
}

// Equal reports whether two values are equal. NULL never equals anything,
// matching SQL semantics used by the executor's equality predicate.
func (v Value) Equal(o Value) bool {
	if v.typ == Null || o.typ == Null {
		return false
	}
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// stringy reports whether the type is compared as a string.
func (t Type) stringy() bool { return t == Text || t == Sequence }

// Compare orders v relative to o: -1 if v < o, 0 if equal, +1 if v > o.
// NULL compares before every non-NULL value; two NULLs compare equal. An
// error is returned when the types are incomparable (e.g. INT vs TEXT).
// Numbers compare by their exact values: INT with INT as int64, INT with
// FLOAT without rounding the INT (so INT 1 equals FLOAT 1.0, but INT 2^53+1
// does not equal FLOAT 2^53).
func (v Value) Compare(o Value) (int, error) {
	if v.typ == Null || o.typ == Null {
		switch {
		case v.typ == Null && o.typ == Null:
			return 0, nil
		case v.typ == Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	switch {
	case v.typ == Int && o.typ == Int:
		return cmp.Compare(v.i, o.i), nil
	case v.typ == Int && o.typ == Float:
		return CompareIntFloat(v.i, o.f), nil
	case v.typ == Float && o.typ == Int:
		return -CompareIntFloat(o.i, v.f), nil
	case v.typ == Float && o.typ == Float:
		return compareFloats(v.f, o.f), nil
	case v.typ.stringy() && o.typ.stringy():
		return strings.Compare(v.s, o.s), nil
	case v.typ == Bool && o.typ == Bool:
		switch {
		case !v.b && o.b:
			return -1, nil
		case v.b && !o.b:
			return 1, nil
		default:
			return 0, nil
		}
	case v.typ == Timestamp && o.typ == Timestamp:
		switch {
		case v.t.Before(o.t):
			return -1, nil
		case v.t.After(o.t):
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("%w: cannot compare %s with %s", ErrTypeMismatch, v.typ, o.typ)
	}
}

// compareFloats orders two floats; NaN is neither less nor greater than
// anything, so it compares equal.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CompareIntFloat orders the integer i relative to the float f exactly,
// without converting i to float64 (which rounds above 2^53). NaN compares
// equal to every integer, as in compareFloats.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63): int64(t) is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return compareFloats(t, f)
}

// Cast converts v to the target type when a lossless or conventional
// conversion exists (Int<->Float, Text<->Sequence, Text->numeric parsing).
func (v Value) Cast(target Type) (Value, error) {
	if v.typ == target {
		return v, nil
	}
	if v.typ == Null {
		return NewNull(), nil
	}
	switch target {
	case Int:
		switch v.typ {
		case Float:
			return NewInt(int64(v.f)), nil
		case Text:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("%w: %q is not an INT", ErrTypeMismatch, v.s)
			}
			return NewInt(i), nil
		case Bool:
			if v.b {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case Float:
		switch v.typ {
		case Int:
			return NewFloat(float64(v.i)), nil
		case Text:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Value{}, fmt.Errorf("%w: %q is not a FLOAT", ErrTypeMismatch, v.s)
			}
			return NewFloat(f), nil
		}
	case Text:
		return NewText(v.String()), nil
	case Sequence:
		if v.typ == Text {
			return NewSequence(v.s), nil
		}
	case Bool:
		switch v.typ {
		case Int:
			return NewBool(v.i != 0), nil
		case Text:
			b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(v.s)))
			if err != nil {
				return Value{}, fmt.Errorf("%w: %q is not a BOOL", ErrTypeMismatch, v.s)
			}
			return NewBool(b), nil
		}
	case Timestamp:
		if v.typ == Text {
			t, err := time.Parse(time.RFC3339Nano, v.s)
			if err != nil {
				t, err = time.Parse("2006-01-02 15:04:05", v.s)
			}
			if err != nil {
				t, err = time.Parse("2006-01-02", v.s)
			}
			if err != nil {
				return Value{}, fmt.Errorf("%w: %q is not a TIMESTAMP", ErrTypeMismatch, v.s)
			}
			return NewTimestamp(t), nil
		}
	}
	return Value{}, fmt.Errorf("%w: cannot cast %s to %s", ErrTypeMismatch, v.typ, target)
}

// Row is an ordered list of values matching a table schema.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a comma-separated list, used by tests and the CLI.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports element-wise equality of two rows, treating NULL == NULL as
// true (rows are compared structurally, not with SQL ternary logic).
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		a, b := r[i], o[i]
		if a.typ == Null && b.typ == Null {
			continue
		}
		c, err := a.Compare(b)
		if err != nil || c != 0 {
			return false
		}
	}
	return true
}

// --- binary codec -----------------------------------------------------------

// Encode appends the binary representation of v to dst and returns the
// extended slice. The format is a one-byte type tag followed by a
// type-specific payload; strings are length-prefixed with a uvarint.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.typ))
	switch v.typ {
	case Null:
	case Int:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i))
		dst = append(dst, buf[:]...)
	case Float:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v.f))
		dst = append(dst, buf[:]...)
	case Text, Sequence:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case Bool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case Timestamp:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.t.UnixNano()))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeValue decodes a single value from buf, returning the value and the
// number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, ErrBadEncoding
	}
	typ := Type(buf[0])
	rest := buf[1:]
	switch typ {
	case Null:
		return NewNull(), 1, nil
	case Int:
		if len(rest) < 8 {
			return Value{}, 0, ErrBadEncoding
		}
		return NewInt(int64(binary.BigEndian.Uint64(rest[:8]))), 9, nil
	case Float:
		if len(rest) < 8 {
			return Value{}, 0, ErrBadEncoding
		}
		return NewFloat(math.Float64frombits(binary.BigEndian.Uint64(rest[:8]))), 9, nil
	case Text, Sequence:
		n, w := uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < n {
			return Value{}, 0, ErrBadEncoding
		}
		s := string(rest[w : w+int(n)])
		if typ == Sequence {
			return NewSequence(s), 1 + w + int(n), nil
		}
		return NewText(s), 1 + w + int(n), nil
	case Bool:
		if len(rest) < 1 || rest[0] > 1 {
			return Value{}, 0, ErrBadEncoding
		}
		return NewBool(rest[0] == 1), 2, nil
	case Timestamp:
		if len(rest) < 8 {
			return Value{}, 0, ErrBadEncoding
		}
		ns := int64(binary.BigEndian.Uint64(rest[:8]))
		return NewTimestamp(time.Unix(0, ns).UTC()), 9, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: unknown type tag %d", ErrBadEncoding, typ)
	}
}

// EncodeRow serialises a row with its value count prefix.
func EncodeRow(r Row) []byte { return AppendRow(nil, r) }

// AppendRow appends EncodeRow's encoding of r to dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = v.Encode(dst)
	}
	return dst
}

// uvarint is binary.Uvarint refusing the zero-padded forms it would accept
// beside the one encoding binary.AppendUvarint writes, so that the decoders
// here accept exactly what the encoders produce.
func uvarint(buf []byte) (uint64, int) {
	n, w := binary.Uvarint(buf)
	if w > 1 && buf[w-1] == 0 {
		return 0, 0
	}
	return n, w
}

// DecodeRow deserialises a row produced by EncodeRow: all of buf, so bytes
// after the row's last value are refused. A count larger than the bytes left
// (every value takes at least one) is refused before anything is allocated
// for it.
func DecodeRow(buf []byte) (Row, error) {
	n, w := uvarint(buf)
	if w <= 0 || n > uint64(len(buf)-w) {
		return nil, ErrBadEncoding
	}
	buf = buf[w:]
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(buf)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
		buf = buf[used:]
	}
	if len(buf) != 0 {
		return nil, ErrBadEncoding
	}
	return row, nil
}

// EncodeKey produces an order-preserving byte encoding of v, suitable as a
// B+-tree key: comparing encoded keys bytewise matches Compare for values of
// the same type. Ints are offset so negative values sort before positive.
func (v Value) EncodeKey(dst []byte) []byte {
	if v.typ.stringy() {
		return AppendStringKey(dst, v.typ, v.s)
	}
	dst = append(dst, byte(v.typ))
	switch v.typ {
	case Null:
	case Int:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i)^(1<<63))
		dst = append(dst, buf[:]...)
	case Float:
		f := v.f
		if f == 0 {
			// Canonicalize -0.0: Compare treats it as equal to +0.0, so the
			// two must encode to the same key.
			f = 0
		}
		bits := math.Float64bits(f)
		if f >= 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		dst = append(dst, buf[:]...)
	case Bool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case Timestamp:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.t.UnixNano())^(1<<63))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// AppendStringKey appends the EncodeKey bytes of s as a value of the TEXT or
// SEQUENCE type t — the tag, the bytes, a 0 — for a caller holding the string
// without a boxed Value.
func AppendStringKey(dst []byte, t Type, s string) []byte {
	dst = append(dst, byte(t))
	dst = append(dst, s...)
	return append(dst, 0)
}

// KeyLen is len(v.EncodeKey(nil)), computed from the type without encoding.
func (v Value) KeyLen() int {
	switch v.typ {
	case Int, Float, Timestamp:
		return 9
	case Text, Sequence:
		return len(v.s) + 2
	case Bool:
		return 2
	default:
		return 1
	}
}
