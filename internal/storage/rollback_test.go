package storage_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bdbms/internal/catalog"
	"bdbms/internal/replay"
	"bdbms/internal/storage"
	"bdbms/internal/value"
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

func dumpScan(t *testing.T, tbl *storage.Table) string {
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

// beginFrame opens a WAL frame and its MVCC write mark, as a transaction's
// first mutation does.
func beginFrame(t *testing.T, eng *storage.Engine) *storage.WriteMark {
	t.Helper()
	if err := eng.WAL().BeginTx(false); err != nil {
		t.Fatal(err)
	}
	return eng.BeginWrite()
}

// rollbackFrame reverts the open frame from its own records, as ROLLBACK
// does, and closes it.
func rollbackFrame(t *testing.T, eng *storage.Engine, mark *storage.WriteMark) {
	t.Helper()
	recs, err := eng.WAL().FrameTail(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := (replay.Target{Eng: eng}).Undo(recs); err != nil {
		t.Fatal(err)
	}
	if err := eng.WAL().AbortTx(); err != nil {
		t.Fatal(err)
	}
	eng.EndWrite(mark)
}

// TestFrameRollbackRevertsMutations: the WAL frame is the write path's undo
// log. Undoing its records reverts DDL, and a frame's row changes — rows,
// indexes and statistics come back — without recording further version
// entries, so a snapshot opened before the frame reads the same rows
// throughout.
func TestFrameRollbackRevertsMutations(t *testing.T) {
	eng := storage.NewMemoryEngine()
	mark := beginFrame(t, eng)
	tbl, err := eng.CreateTable(geneSchema("Gene"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(geneRow("JW1", "x", "AC"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(id, geneRow("JW1", "y", "GT")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("GName"); err != nil {
		t.Fatal(err)
	}
	rollbackFrame(t, eng, mark)
	if eng.HasTable("Gene") || eng.Catalog().HasTable("Gene") {
		t.Error("rolling the frame back did not revert CREATE TABLE")
	}
	// Outside a frame there is nothing to roll back.
	tbl, err = eng.CreateTable(geneSchema("Gene2"))
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := eng.WAL().FrameTail(0); err != nil || len(recs) != 0 {
		t.Errorf("FrameTail outside a frame = %d records (%v), want none", len(recs), err)
	}

	keep, err := tbl.Insert(geneRow("JW1", "x", "AC"))
	if err != nil {
		t.Fatal(err)
	}
	gone, err := tbl.Insert(geneRow("JW2", "z", "TT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("GName"); err != nil {
		t.Fatal(err)
	}
	if tbl.Stats() == nil {
		t.Fatal("no statistics")
	}
	before := dumpScan(t, tbl)
	snap := eng.NewSnapshot()
	defer snap.Close()

	mark = beginFrame(t, eng)
	added, err := tbl.Insert(geneRow("JW3", "w", "GG"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(added, geneRow("JW3", "v", "GGG")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(keep, geneRow("JW1", "y", "GT")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(gone); err != nil {
		t.Fatal(err)
	}
	if n, v := eng.WAL().FrameRecords(), storage.VersionCount(tbl); n != 4 || v != 4 {
		t.Fatalf("frame holds %d records and %d version entries, want 4 and 4", n, v)
	}
	rollbackFrame(t, eng, mark)
	if v := storage.VersionCount(tbl); v != 4 {
		t.Errorf("rolling back recorded %d further version entries", v-4)
	}
	if got := dumpScan(t, tbl); got != before {
		t.Errorf("after rollback:\n%s\nwant:\n%s", got, before)
	}
	if problems := tbl.CheckIntegrity(); len(problems) != 0 {
		t.Errorf("integrity after rollback: %v", problems)
	}
	if ids, err := tbl.IndexLookup("GName", value.NewText("x")); err != nil || len(ids) != 1 || ids[0] != keep {
		t.Errorf("index lookup of the restored name = %v (%v), want [%d]", ids, err, keep)
	}
	if cur := tbl.CurrentStats(); cur == nil || cur.Rows != 2 {
		t.Errorf("statistics after rollback: %+v, want 2 rows", cur)
	}
	// The snapshot opened before the frame saw the same two rows throughout.
	for _, id := range []int64{keep, gone} {
		if _, err := snap.Get(tbl, id); err != nil {
			t.Errorf("snapshot lost row %d: %v", id, err)
		}
	}
	if _, err := snap.Get(tbl, added); !errors.Is(err, storage.ErrRowNotFound) {
		t.Errorf("snapshot sees the rolled-back insert: %v", err)
	}
}
