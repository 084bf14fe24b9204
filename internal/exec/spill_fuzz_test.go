package exec

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bdbms/internal/annotation"
	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
)

// spillFuzzAgg is the grouping whose records FuzzSpillRecords decodes: a
// TEXT key, COUNT(*) (slotless), SUM and AVG over INT and FLOAT, and MIN
// over TEXT (a boxed best value).
func spillFuzzAgg(t testing.TB) *groupAggIter {
	t.Helper()
	stmt, err := sqlparse.Parse(`SELECT G, COUNT(*), SUM(V), AVG(F), MIN(G) FROM T GROUP BY G`)
	if err != nil {
		t.Fatal(err)
	}
	bindings := []binding{{table: "T", column: "G"}, {table: "T", column: "V", colIdx: 1}, {table: "T", column: "F", colIdx: 2}}
	g, err := newGroupAggIter(newSession(t), nil, stmt.(*sqlparse.SelectStmt), bindings, &spillFile{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// spillFuzzCells are two annotated cells of a three-column row; the
// annotation spans two regions.
func spillFuzzCells() [][]*annotation.Annotation {
	a := &annotation.Annotation{
		ID: 7, AnnTable: "Notes", UserTable: "T", Body: "<Annotation>x</Annotation>", Author: "admin",
		CreatedAt: time.Unix(1700000000, 5).UTC(),
		Regions:   []annotation.Region{annotation.CellRegion("T", 3, 1), {Table: "T", ColStart: 0, ColEnd: 2, RowStart: 4, RowEnd: 9}},
	}
	return [][]*annotation.Annotation{nil, {a}, {a, outdatedMark("T", "F", 3, 2)}}
}

// FuzzSpillRecords feeds the spill record decoders — group buckets,
// observation records and ARow records — arbitrary bytes: they must return
// an error, never panic, and a record they accept must re-encode to bytes
// that decode and encode again unchanged. Run it with
//
//	go test -run '^$' -fuzz FuzzSpillRecords -fuzztime 30s ./internal/exec
//
// The seed corpus is testdata/fuzz/FuzzSpillRecords plus the records added
// below.
func FuzzSpillRecords(f *testing.F) {
	g := spillFuzzAgg(f)
	row := value.Row{value.NewText("g1"), value.NewInt(-3), value.NewFloat(2.5)}
	full := &groupBucket{vals: row, anns: spillFuzzCells(), aggs: make([]aggState, len(g.specs))}
	for i := range full.aggs {
		full.aggs[i].update(g.specs[i].kind, row[max(g.specs[i].slot, 0)])
	}
	f.Add(g.encodeBucket(nil, full))
	f.Add(g.encodeBucket(nil, &groupBucket{aggs: make([]aggState, len(g.specs))}))
	var obs []byte
	for _, v := range []value.Value{value.NewInt(4), value.NewFloat(-1), value.NewText("g0")} {
		obs = appendObsValue(obs, v)
	}
	f.Add(obs)
	f.Add(appendARowRec(nil, ARow{Values: row, Anns: spillFuzzCells()}))
	f.Add(appendARowRec(nil, ARow{Anns: make([][]*annotation.Annotation, 2)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b groupBucket
		_ = g.decodeBucket(&byteReader{buf: data}, &b, false)
		if err := g.decodeBucket(&byteReader{buf: data}, &b, true); err == nil {
			enc := g.encodeBucket(nil, &b)
			var again groupBucket
			if err := g.decodeBucket(&byteReader{buf: enc}, &again, true); err != nil {
				t.Fatalf("re-decoding bucket %x: %v", enc, err)
			}
			if enc2 := g.encodeBucket(nil, &again); !bytes.Equal(enc, enc2) {
				t.Fatalf("bucket encoding moved: %x, then %x", enc, enc2)
			}
		}

		acc := groupBucket{aggs: make([]aggState, len(g.specs))}
		_ = g.foldObs(&acc, &byteReader{buf: data})

		r := &byteReader{buf: data}
		r.aRow(false)
		r = &byteReader{buf: data}
		if ar := r.aRow(true); r.err == nil {
			enc := appendARowRec(nil, ar)
			r2 := &byteReader{buf: enc}
			again := r2.aRow(true)
			if r2.err != nil {
				t.Fatalf("re-decoding ARow %x: %v", enc, r2.err)
			}
			if enc2 := appendARowRec(nil, again); !bytes.Equal(enc, enc2) {
				t.Fatalf("ARow encoding moved: %x, then %x", enc, enc2)
			}
		}
	})
}

// TestSpillRegionCountIsBounded is the regression test for an annotation
// record whose region count exceeds its bytes: the decoder used to size the
// region slice from it and panic; it must report a corrupt record.
func TestSpillRegionCountIsBounded(t *testing.T) {
	a := &annotation.Annotation{ID: 1, AnnTable: "Notes", UserTable: "T", Body: "b"}
	rec := appendAnnotation(nil, a)
	// A region-free annotation ends in its region count, 0; claim 2^62.
	rec = appendUvarint(rec[:len(rec)-1], 1<<62)
	cells := appendUvarint(appendUvarint(nil, 1), 1)
	r := &byteReader{buf: append(cells, rec...)}
	if got := r.annCells(false); got != nil || !errors.Is(r.err, errCorruptSpill) {
		t.Fatalf("annCells = %v, err %v; want errCorruptSpill", got, r.err)
	}
}
