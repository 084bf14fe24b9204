package storage

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"bdbms/internal/catalog"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// encodeChange frames a Change the way the live write path does, from the
// stored records of its two images.
func encodeChange(c Change) (wal.Kind, []byte) {
	var beforeRec, afterRec []byte
	if c.Before != nil {
		beforeRec = encodeStored(c.RowID, c.Before)
	}
	if c.After != nil {
		afterRec = encodeStored(c.RowID, c.After)
	}
	return changePayload(beforeRec, afterRec)
}

// TestChangeCodec pins the WAL payload of each row record kind, byte for
// byte, against hex produced by the commit before Change existed (a886669:
// its stored-row and update-payload encoders over the same rows): a log
// written by that commit decodes here, and a log written here is what it
// would have written. Every value type is in the rows.
func TestChangeCodec(t *testing.T) {
	before := value.Row{value.NewInt(-3), value.NewText("old"), value.NewSequence("ACGT"), value.NewNull(),
		value.NewFloat(1.5), value.NewBool(true), value.NewTimestamp(time.Unix(1700000000, 42).UTC())}
	after := value.Row{value.NewInt(9), value.NewText("newer"), value.NewSequence(""), value.NewInt(0),
		value.NewNull(), value.NewBool(false), value.NewTimestamp(time.Unix(0, 0).UTC())}
	const (
		afterHex  = "0801000000000000012c01000000000000000903056e657765720500010000000000000000000400060000000000000000"
		beforeHex = "0801000000000000012c01fffffffffffffffd03036f6c6405044143475400023ff800000000000004010617979cfe362a002a"
	)
	cases := []struct {
		kind   wal.Kind
		change Change
		golden string
	}{
		{wal.KindInsert, Change{RowID: 300, After: after}, afterHex},
		{wal.KindUpdate, Change{RowID: 300, Before: before, After: after}, "31" + afterHex + beforeHex},
		{wal.KindDelete, Change{RowID: 300, Before: before}, beforeHex},
	}
	var updatePayload []byte
	for _, tc := range cases {
		kind, payload := encodeChange(tc.change)
		if kind != tc.kind {
			t.Errorf("%s: encoded as kind %s", tc.kind, kind)
		}
		if got := hex.EncodeToString(payload); got != tc.golden {
			t.Errorf("%s payload\n got %s\nwant %s", tc.kind, got, tc.golden)
		}
		golden, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeChange(tc.kind, golden)
		if err != nil {
			t.Fatalf("%s: decode golden payload: %v", tc.kind, err)
		}
		if got.RowID != 300 || !sameImage(got.Before, tc.change.Before) || !sameImage(got.After, tc.change.After) {
			t.Errorf("%s: decoded %+v, want %+v", tc.kind, got, tc.change)
		}
		if tc.kind == wal.KindUpdate {
			updatePayload = payload
		}
	}
	// Truncated or garbage payloads must error, not panic.
	for _, bad := range [][]byte{nil, {0x80}, updatePayload[:3], updatePayload[:len(updatePayload)-2]} {
		if _, err := DecodeChange(wal.KindUpdate, bad); err == nil {
			t.Errorf("DecodeChange(update, %x) succeeded on malformed input", bad)
		}
	}
	for _, kind := range []wal.Kind{wal.KindInsert, wal.KindDelete} {
		for _, bad := range [][]byte{nil, {0x80}, updatePayload[1:4]} {
			if _, err := DecodeChange(kind, bad); err == nil {
				t.Errorf("DecodeChange(%s, %x) succeeded on malformed input", kind, bad)
			}
		}
	}
	// The two images of an update must name the same row.
	_, other := encodeChange(Change{RowID: 301, Before: before})
	_, mixed := changePayload(other, encodeStored(300, after))
	if _, err := DecodeChange(wal.KindUpdate, mixed); err == nil {
		t.Error("update payload whose images disagree on the RowID decoded")
	}
	if _, err := DecodeChange(wal.KindCreateTable, updatePayload); err == nil {
		t.Error("a non-row record kind decoded as a change")
	}
}

// sameImage compares two row images, nil (absent) equal only to nil.
func sameImage(a, b value.Row) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

func applySchema(name string) *catalog.Schema {
	return &catalog.Schema{
		Name: name,
		Columns: []catalog.Column{
			{Name: "ID", Type: value.Int, NotNull: true},
			{Name: "Tag", Type: value.Text},
			{Name: "Score", Type: value.Int},
		},
		PrimaryKey: "ID",
	}
}

// applyRow builds a row of applySchema; an empty tag is NULL.
func applyRow(id int64, tag string, score int64) value.Row {
	tagV := value.NewNull()
	if tag != "" {
		tagV = value.NewText(tag)
	}
	return value.Row{value.NewInt(id), tagV, value.NewInt(score)}
}

// dumpScan renders the table's Scan output, RowIDs included.
func dumpScan(t *testing.T, tbl *Table) string {
	t.Helper()
	var b strings.Builder
	if err := tbl.Scan(func(rowID int64, row value.Row) bool {
		fmt.Fprintf(&b, "%d=%s\n", rowID, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// requireConsistent asserts the table's structures agree with each other and
// with target as the image of row rowID: integrity scrub clean, the
// incrementally maintained statistics exact where they are documented to be
// (row and NULL counts; the range a superset), and both indexes finding the
// row under target's keys (the scrub rules out entries under any other).
func requireConsistent(t *testing.T, tbl *Table, rowID int64, target value.Row) {
	t.Helper()
	if problems := tbl.CheckIntegrity(); len(problems) != 0 {
		t.Fatalf("integrity: %v", problems)
	}
	cur := tbl.CurrentStats()
	exact, err := tbl.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if cur == nil || cur.Rows != exact.Rows {
		t.Fatalf("stats rows: maintained %+v, exact %+v", cur, exact)
	}
	for i := range exact.Cols {
		cc, ec := cur.Cols[i], exact.Cols[i]
		if cc.Nulls != ec.Nulls {
			t.Fatalf("stats column %d: NULL count %d, exact %d", i, cc.Nulls, ec.Nulls)
		}
		if ec.HasRange && (!cc.HasRange || cc.Min > ec.Min || cc.Max < ec.Max) {
			t.Fatalf("stats column %d: range [%v, %v] does not contain [%v, %v]", i, cc.Min, cc.Max, ec.Min, ec.Max)
		}
	}
	got, err := tbl.Get(rowID)
	if target == nil {
		if err == nil {
			t.Fatalf("row %d still present: %v", rowID, got)
		}
		return
	}
	if err != nil || !got.Equal(target) {
		t.Fatalf("row %d = %v (%v), want %v", rowID, got, err, target)
	}
	for _, col := range []string{"ID", "Tag"} {
		v := target[tbl.Schema().ColumnIndex(col)]
		if v.IsNull() {
			continue
		}
		ids, err := tbl.IndexLookup(col, v)
		found := false
		for _, id := range ids {
			found = found || id == rowID
		}
		if err != nil || !found {
			t.Fatalf("index %s lookup of %s = %v (%v), want it to find row %d", col, v, ids, err, rowID)
		}
	}
}

// TestApplyTransitions drives the one applier through every transition of a
// row — applied once, applied again (idempotence), then reverted by applying
// the prior image, which is exactly what redo and undo do with a Change.
func TestApplyTransitions(t *testing.T) {
	const rowID = 10
	cases := []struct {
		name     string
		from, to value.Row
		// sameKeys lists the indexed columns whose key the transition keeps:
		// their B+-trees must not be written at all.
		sameKeys []string
	}{
		{name: "absent to row", to: applyRow(7, "a", 1)},
		{name: "indexed key changed", from: applyRow(7, "a", 1), to: applyRow(7, "b", 1), sameKeys: []string{"id"}},
		{name: "primary key changed", from: applyRow(7, "a", 1), to: applyRow(8, "a", 1), sameKeys: []string{"tag"}},
		{name: "indexed keys unchanged", from: applyRow(7, "a", 1), to: applyRow(7, "a", 2), sameKeys: []string{"id", "tag"}},
		{name: "indexed key to NULL", from: applyRow(7, "a", 1), to: applyRow(7, "", 1), sameKeys: []string{"id"}},
		{name: "indexed key from NULL", from: applyRow(7, "", 1), to: applyRow(7, "a", 1), sameKeys: []string{"id"}},
		{name: "NULL stays NULL", from: applyRow(7, "", 1), to: applyRow(7, "", 5), sameKeys: []string{"id", "tag"}},
		{name: "record grows past its slot", from: applyRow(7, "a", 1), to: applyRow(7, strings.Repeat("long", 40), 1), sameKeys: []string{"id"}},
		{name: "row to absent", from: applyRow(7, "a", 1)},
		{name: "absent to absent"},
		{name: "row to same row", from: applyRow(7, "a", 1), to: applyRow(7, "a", 1), sameKeys: []string{"id", "tag"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewMemoryEngine()
			tbl, err := e.CreateTable(applySchema("T"))
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateIndex("Tag"); err != nil {
				t.Fatal(err)
			}
			for _, row := range []value.Row{applyRow(1, "a", 100), applyRow(2, "", 200)} {
				if _, err := tbl.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Apply(rowID, tc.from); err != nil {
				t.Fatal(err)
			}
			if tbl.Stats() == nil { // build, so the applier maintains them
				t.Fatal("no statistics")
			}
			requireConsistent(t, tbl, rowID, tc.from)
			prior := dumpScan(t, tbl)
			changed := !sameImage(tc.from, tc.to)

			seq := tbl.WriteSeq()
			writes := map[string]uint64{}
			for col, tree := range tbl.indexes {
				writes[col] = tree.Stats().NodeWrites
			}
			if err := tbl.Apply(rowID, tc.to); err != nil {
				t.Fatal(err)
			}
			if advanced := tbl.WriteSeq() != seq; advanced != changed {
				t.Errorf("WriteSeq advanced = %v, stored bytes changed = %v", advanced, changed)
			}
			for _, col := range tc.sameKeys {
				if got := tbl.indexes[col].Stats().NodeWrites; got != writes[col] {
					t.Errorf("index %s written (%d node writes) though its key did not change", col, got-writes[col])
				}
			}
			requireConsistent(t, tbl, rowID, tc.to)
			applied := dumpScan(t, tbl)

			// Again: nothing left to do, nothing touched.
			seq = tbl.WriteSeq()
			if err := tbl.Apply(rowID, tc.to); err != nil {
				t.Fatal(err)
			}
			if tbl.WriteSeq() != seq {
				t.Error("re-applying the same image advanced WriteSeq")
			}
			requireConsistent(t, tbl, rowID, tc.to)
			if again := dumpScan(t, tbl); again != applied {
				t.Errorf("re-applying changed the table:\n%s\nwas:\n%s", again, applied)
			}

			// Undo: applying the prior image restores the prior Scan output.
			for pass := 0; pass < 2; pass++ {
				if err := tbl.Apply(rowID, tc.from); err != nil {
					t.Fatal(err)
				}
				requireConsistent(t, tbl, rowID, tc.from)
				if got := dumpScan(t, tbl); got != prior {
					t.Errorf("after apply(After) then apply(Before):\n%s\nwant:\n%s", got, prior)
				}
			}
		})
	}
}

// TestApplyRejectsForeignRow: an image that does not fit the schema — a WAL
// record replayed against the wrong table — is refused before anything is
// written.
func TestApplyRejectsForeignRow(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(applySchema("T"))
	if err != nil {
		t.Fatal(err)
	}
	seq := tbl.WriteSeq()
	if err := tbl.Apply(1, value.Row{value.NewInt(1)}); err == nil {
		t.Fatal("a one-column image applied to a three-column table")
	}
	if tbl.WriteSeq() != seq || tbl.RowCount() != 0 {
		t.Error("a refused image still wrote")
	}
}
