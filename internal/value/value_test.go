package value

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Null: "NULL", Int: "INT", Float: "FLOAT", Text: "TEXT",
		Bool: "BOOL", Sequence: "SEQUENCE", Timestamp: "TIMESTAMP",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"int": Int, "INTEGER": Int, "bigint": Int,
		"float": Float, "DOUBLE": Float, "real": Float,
		"text": Text, "VARCHAR": Text, "string": Text,
		"bool": Bool, "BOOLEAN": Bool,
		"sequence": Sequence, "SEQ": Sequence,
		"timestamp": Timestamp, "datetime": Timestamp,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestCompareNumeric(t *testing.T) {
	a, b := NewInt(3), NewFloat(3.5)
	c, err := a.Compare(b)
	if err != nil || c != -1 {
		t.Fatalf("3 vs 3.5 = %d, %v; want -1, nil", c, err)
	}
	c, err = b.Compare(a)
	if err != nil || c != 1 {
		t.Fatalf("3.5 vs 3 = %d, %v; want 1, nil", c, err)
	}
	c, err = NewInt(7).Compare(NewInt(7))
	if err != nil || c != 0 {
		t.Fatalf("7 vs 7 = %d, %v; want 0, nil", c, err)
	}
}

func TestCompareStrings(t *testing.T) {
	c, err := NewText("ATG").Compare(NewSequence("ATT"))
	if err != nil || c != -1 {
		t.Fatalf("ATG vs ATT = %d, %v", c, err)
	}
}

func TestCompareNulls(t *testing.T) {
	c, _ := NewNull().Compare(NewInt(0))
	if c != -1 {
		t.Errorf("NULL vs 0 = %d, want -1", c)
	}
	c, _ = NewInt(0).Compare(NewNull())
	if c != 1 {
		t.Errorf("0 vs NULL = %d, want 1", c)
	}
	c, _ = NewNull().Compare(NewNull())
	if c != 0 {
		t.Errorf("NULL vs NULL = %d, want 0", c)
	}
}

func TestCompareTypeMismatch(t *testing.T) {
	if _, err := NewInt(1).Compare(NewText("x")); err == nil {
		t.Error("INT vs TEXT should be an error")
	}
	if _, err := NewBool(true).Compare(NewFloat(1)); err == nil {
		t.Error("BOOL vs FLOAT should be an error")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if NewNull().Equal(NewNull()) {
		t.Error("NULL = NULL must be false under SQL equality")
	}
	if !NewInt(4).Equal(NewFloat(4)) {
		t.Error("4 = 4.0 must be true")
	}
}

func TestCastRoundTrips(t *testing.T) {
	v, err := NewText("42").Cast(Int)
	if err != nil || v.Int() != 42 {
		t.Fatalf("cast text->int: %v %v", v, err)
	}
	v, err = NewText("2.5").Cast(Float)
	if err != nil || v.Float() != 2.5 {
		t.Fatalf("cast text->float: %v %v", v, err)
	}
	v, err = NewInt(1).Cast(Bool)
	if err != nil || !v.Bool() {
		t.Fatalf("cast int->bool: %v %v", v, err)
	}
	v, err = NewFloat(3.9).Cast(Int)
	if err != nil || v.Int() != 3 {
		t.Fatalf("cast float->int: %v %v", v, err)
	}
	v, err = NewText("hello").Cast(Sequence)
	if err != nil || v.Type() != Sequence {
		t.Fatalf("cast text->sequence: %v %v", v, err)
	}
	if _, err = NewBool(true).Cast(Timestamp); err == nil {
		t.Error("bool->timestamp should fail")
	}
	v, err = NewText("2026-06-16").Cast(Timestamp)
	if err != nil || v.Time().Year() != 2026 {
		t.Fatalf("cast text->timestamp: %v %v", v, err)
	}
}

func TestCastNullPassthrough(t *testing.T) {
	v, err := NewNull().Cast(Int)
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL cast should stay NULL, got %v %v", v, err)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-5), "-5"},
		{NewFloat(1.25), "1.25"},
		{NewText("abc"), "abc"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewNull(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEncodeDecodeValueRoundTrip(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Microsecond)
	vals := []Value{
		NewNull(), NewInt(0), NewInt(-1), NewInt(math.MaxInt64),
		NewFloat(3.14159), NewFloat(-0.001), NewText(""), NewText("hello world"),
		NewSequence("ATGCATGC"), NewBool(true), NewBool(false), NewTimestamp(now),
	}
	for _, v := range vals {
		buf := v.Encode(nil)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("decode %v consumed %d of %d bytes", v, n, len(buf))
		}
		if got.Type() != v.Type() || got.String() != v.String() {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestEncodeDecodeRow(t *testing.T) {
	row := Row{NewInt(1), NewText("gene"), NewSequence("ATG"), NewNull(), NewFloat(0.5)}
	buf := EncodeRow(row)
	got, err := DecodeRow(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("row length %d, want %d", len(got), len(row))
	}
	for i := range row {
		if got[i].Type() != row[i].Type() || got[i].String() != row[i].String() {
			t.Errorf("col %d: %v != %v", i, got[i], row[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("decoding empty buffer should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(Int), 1, 2}); err == nil {
		t.Error("truncated int should fail")
	}
	if _, err := DecodeRow([]byte{}); err == nil {
		t.Error("decoding empty row should fail")
	}
	if _, _, err := DecodeValue([]byte{200}); err == nil {
		t.Error("unknown tag should fail")
	}
}

func TestRowCloneAndEqual(t *testing.T) {
	r := Row{NewInt(1), NewText("a"), NewNull()}
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone must equal original")
	}
	c[0] = NewInt(2)
	if r.Equal(c) {
		t.Fatal("mutated clone must differ")
	}
	if r.Equal(Row{NewInt(1)}) {
		t.Fatal("rows of different length must differ")
	}
}

func TestEncodeKeyPreservesIntOrder(t *testing.T) {
	ints := []int64{math.MinInt64, -100, -1, 0, 1, 42, math.MaxInt64}
	keys := make([][]byte, len(ints))
	for i, n := range ints {
		keys[i] = NewInt(n).EncodeKey(nil)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
		t.Fatal("EncodeKey must preserve integer ordering")
	}
}

func TestEncodeKeyPreservesFloatOrder(t *testing.T) {
	fs := []float64{-1e10, -2.5, -0.0001, 0, 0.0001, 2.5, 1e10}
	keys := make([][]byte, len(fs))
	for i, f := range fs {
		keys[i] = NewFloat(f).EncodeKey(nil)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
		t.Fatal("EncodeKey must preserve float ordering")
	}
}

// Property: the binary codec round-trips arbitrary ints, floats and strings.
func TestQuickValueCodecRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		row := Row{NewInt(i), NewFloat(fl), NewText(s), NewBool(b), NewSequence(s)}
		got, err := DecodeRow(EncodeRow(row))
		if err != nil || len(got) != len(row) {
			return false
		}
		return got[0].Int() == i && got[1].Float() == fl && got[2].Text() == s &&
			got[3].Bool() == b && got[4].Text() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey ordering for ints matches numeric ordering.
func TestQuickEncodeKeyOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ka := NewInt(a).EncodeKey(nil)
		kb := NewInt(b).EncodeKey(nil)
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: text key encoding preserves order for strings without NUL bytes.
func TestQuickTextKeyOrder(t *testing.T) {
	clean := func(s string) string {
		out := make([]byte, 0, len(s))
		for i := 0; i < len(s); i++ {
			if s[i] != 0 {
				out = append(out, s[i])
			}
		}
		return string(out)
	}
	f := func(a, b string) bool {
		a, b = clean(a), clean(b)
		ka := NewText(a).EncodeKey(nil)
		kb := NewText(b).EncodeKey(nil)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyNegativeZero(t *testing.T) {
	neg := NewFloat(math.Copysign(0, -1))
	pos := NewFloat(0)
	if c, err := neg.Compare(pos); err != nil || c != 0 {
		t.Fatalf("Compare(-0.0, +0.0) = %d, %v", c, err)
	}
	if !bytes.Equal(neg.EncodeKey(nil), pos.EncodeKey(nil)) {
		t.Errorf("EncodeKey(-0.0) != EncodeKey(+0.0): values that Compare equal must share a key")
	}
}

// TestKeyLenMatchesEncodeKey: KeyLen is the length EncodeKey writes, for
// every type.
func TestKeyLenMatchesEncodeKey(t *testing.T) {
	for _, v := range []Value{
		NewNull(), NewInt(-3), NewFloat(math.Copysign(0, -1)), NewText(""), NewText("ACGT"),
		NewSequence("TTGACC"), NewBool(true), NewTimestamp(time.Unix(1700000000, 5)),
	} {
		if got, want := v.KeyLen(), len(v.EncodeKey(nil)); got != want {
			t.Errorf("%s %v: KeyLen %d, EncodeKey writes %d bytes", v.Type(), v, got, want)
		}
	}
}

// Property: for INT pairs, Compare orders exactly as their index keys do,
// also where float64 cannot tell two integers apart (above 2^53).
func TestQuickCompareMatchesIntKeyOrder(t *testing.T) {
	f := func(a, b int64) bool {
		c, err := NewInt(a).Compare(NewInt(b))
		return err == nil && c == bytes.Compare(NewInt(a).EncodeKey(nil), NewInt(b).EncodeKey(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int64{
		{1 << 53, 1<<53 + 1}, {-1<<53 - 1, -1 << 53}, {math.MaxInt64 - 1, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 1},
	} {
		if !f(p[0], p[1]) || !f(p[1], p[0]) || !f(p[0], p[0]) {
			t.Errorf("Compare disagrees with EncodeKey on %d, %d", p[0], p[1])
		}
	}
}

// TestCompareIntFloatExact: INT against FLOAT compares the exact values, in
// both argument orders, at and beyond float64's integer precision and at
// the int64 range's ends, and INT 1 still equals FLOAT 1.0.
func TestCompareIntFloatExact(t *testing.T) {
	cases := []struct {
		i    int64
		f    float64
		want int
	}{
		{1, 1.0, 0},
		{3, 3.5, -1},
		{-3, -3.5, 1},
		{-2, -2.5, 1},
		{1 << 53, 1 << 53, 0},
		{1<<53 + 1, 1 << 53, 1},
		{1<<53 + 1, 1<<53 + 2, -1},
		{math.MaxInt64, 1 << 63, -1},
		{math.MinInt64, -1 << 63, 0},
		{math.MinInt64, math.Inf(-1), 1},
		{0, math.Copysign(0, -1), 0},
	}
	for _, c := range cases {
		if got, err := NewInt(c.i).Compare(NewFloat(c.f)); err != nil || got != c.want {
			t.Errorf("INT %d vs FLOAT %g = %d, %v; want %d", c.i, c.f, got, err, c.want)
		}
		if got, err := NewFloat(c.f).Compare(NewInt(c.i)); err != nil || got != -c.want {
			t.Errorf("FLOAT %g vs INT %d = %d, %v; want %d", c.f, c.i, got, err, -c.want)
		}
	}
}
