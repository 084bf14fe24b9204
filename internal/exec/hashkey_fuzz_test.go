package exec

import (
	"bytes"
	"math"
	"testing"
	"time"

	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// hashKeyCell builds one fuzzed cell. kind picks the column's domain (0
// numeric, 1 string, 2 bool, 3 timestamp); alt picks the domain's second
// type (FLOAT, SEQUENCE).
func hashKeyCell(kind byte, alt, null bool, i int64, f float64, s string) value.Value {
	switch {
	case null:
		return value.NewNull()
	case kind == 0 && alt:
		return value.NewFloat(f)
	case kind == 0:
		return value.NewInt(i)
	case kind == 1 && alt:
		return value.NewSequence(s)
	case kind == 1:
		return value.NewText(s)
	case kind == 2:
		return value.NewBool(i&1 != 0)
	default:
		return value.NewTimestamp(time.Unix(0, i))
	}
}

// FuzzHashKey checks the one hash-key encoding against Compare on two
// two-column rows a and b:
//
//   - same-typed rows (GROUP BY, DISTINCT, set operations): appendHashKey
//     keys are equal exactly when every pair of cells compares 0, NULL
//     equal to NULL;
//   - join-normalized keys (each cell's type free within its column's
//     domain): the joinKeys are equal exactly when `=` holds on every pair
//     and no cell is NULL;
//   - a batch vector keys a TEXT or SEQUENCE cell like its boxed value.
//
// shape holds the two columns' kinds (bits 0–1, 2–3) and the NULL cells
// (bits 4–7: a0, a1, b0, b1); alts holds each cell's alternative type in the
// same order. NaN is left out: Value.Compare makes it equal to everything,
// so no key can agree with it. Run it with
//
//	go test -run '^$' -fuzz FuzzHashKey -fuzztime 30s ./internal/exec
//
// The seed corpus is testdata/fuzz/FuzzHashKey.
func FuzzHashKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, alts byte, ia0, ia1, ib0, ib1 int64, fa0, fa1, fb0, fb1 float64, sa0, sa1, sb0, sb1 string) {
		for _, x := range []float64{fa0, fa1, fb0, fb1} {
			if math.IsNaN(x) {
				return
			}
		}
		k0, k1 := shape&3, shape>>2&3
		bit := func(b byte, n uint) bool { return b>>n&1 != 0 }
		rows := func(bAlts byte) (a, b value.Row) {
			a = value.Row{
				hashKeyCell(k0, bit(alts, 0), bit(shape, 4), ia0, fa0, sa0),
				hashKeyCell(k1, bit(alts, 1), bit(shape, 5), ia1, fa1, sa1),
			}
			b = value.Row{
				hashKeyCell(k0, bit(bAlts, 0), bit(shape, 6), ib0, fb0, sb0),
				hashKeyCell(k1, bit(bAlts, 1), bit(shape, 7), ib1, fb1, sb1),
			}
			return a, b
		}
		equal := func(a, b value.Row, nullJoins bool) bool {
			for c := range a {
				if !nullJoins && (a[c].IsNull() || b[c].IsNull()) {
					return false
				}
				if cmp, err := a[c].Compare(b[c]); err != nil || cmp != 0 {
					return false
				}
			}
			return true
		}

		a, b := rows(alts)
		ka, kb := appendHashKey(nil, a...), appendHashKey(nil, b...)
		if got, want := bytes.Equal(ka, kb), equal(a, b, true); got != want {
			t.Fatalf("rows %v and %v: keys equal %v, values equal %v (%x, %x)", a, b, got, want, ka, kb)
		}

		for _, v := range append(a, b...) {
			if typ := v.Type(); typ == value.Text || typ == value.Sequence {
				vec := bvec{kind: storage.ColText, typ: typ, strs: []string{v.Text()}}
				if got, want := vec.appendHashKey(nil, 0), appendHashKey(nil, v); !bytes.Equal(got, want) {
					t.Fatalf("%s %q: vector key %x, boxed key %x", typ, v.Text(), got, want)
				}
			}
		}

		a, b = rows(alts >> 2)
		classes := [4]compareClass{classNumeric, classString, classBool, classTime}
		cols := []joinKeyCol{{0, classes[k0]}, {1, classes[k1]}}
		ja, okA := joinKey(nil, a, cols)
		jb, okB := joinKey(nil, b, cols)
		if got, want := okA && okB && bytes.Equal(ja, jb), equal(a, b, false); got != want {
			t.Fatalf("join rows %v and %v: keys join %v, `=` holds %v (%x, %x)", a, b, got, want, ja, jb)
		}
	})
}
