package storage

// Tests for Table.CheckIntegrity: a healthy table reports nothing, and each
// way the heap, the row index and the secondary B+-trees can disagree is
// reported. Tampering reaches into the private structures directly — these
// states are unreachable through the API, which is exactly why the check
// exists (a recovery or eviction bug would be how they arise in the field).

import (
	"strings"
	"testing"

	"bdbms/internal/heap"
	"bdbms/internal/value"
)

// integrityTable builds an indexed table with a few rows.
func integrityTable(t *testing.T) *Table {
	t.Helper()
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(geneSchema("Gene"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("GName"); err != nil {
		t.Fatal(err)
	}
	for i, r := range []value.Row{
		geneRow("JW0080", "mraW", "ATGATGG"),
		geneRow("JW0082", "ftsI", "ATGAAAG"),
		geneRow("JW0090", "mraW", "CCGATTA"),
	} {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return tbl
}

func requireProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("no problem mentioning %q in %q", substr, problems)
}

func TestCheckIntegrityClean(t *testing.T) {
	tbl := integrityTable(t)
	if problems := tbl.CheckIntegrity(); len(problems) != 0 {
		t.Fatalf("healthy table reports problems: %q", problems)
	}
}

func TestCheckIntegrityDetectsMissingRowIndexEntry(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tbl.rows.del(2)
	tbl.mu.Unlock()
	requireProblem(t, tbl.CheckIntegrity(), "row index")
}

func TestCheckIntegrityDetectsDanglingRowIndexEntry(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tbl.rows.set(99, heap.RID{Page: 0, Slot: 999})
	tbl.mu.Unlock()
	requireProblem(t, tbl.CheckIntegrity(), "99")
}

func TestCheckIntegrityDetectsRowIndexCountDrift(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tbl.rows.live++ // every entry still matches the heap; only the count is off
	tbl.mu.Unlock()
	problems := tbl.CheckIntegrity()
	requireProblem(t, problems, "row index counts 4 live rows, the heap holds 3")
	if len(problems) != 1 {
		t.Errorf("want only the count reported, got %q", problems)
	}
}

func TestCheckIntegrityDetectsMissingIndexEntry(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tree := tbl.indexes["gname"]
	tbl.mu.Unlock()
	if tree == nil {
		t.Fatal("no gname index")
	}
	// Remove one heap row's posting from the secondary index.
	if err := tree.Delete(value.NewText("ftsI").EncodeKey(nil), rowIDBytes(2)); err != nil {
		t.Fatal(err)
	}
	requireProblem(t, tbl.CheckIntegrity(), "missing")
}

func TestCheckIntegrityDetectsStaleIndexEntry(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tree := tbl.indexes["gname"]
	tbl.mu.Unlock()
	// An entry pointing at a row that does not exist.
	tree.Insert(value.NewText("ghost").EncodeKey(nil), rowIDBytes(42))
	requireProblem(t, tbl.CheckIntegrity(), "42")
}

func TestCheckIntegrityDetectsWrongIndexKey(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tree := tbl.indexes["gname"]
	tbl.mu.Unlock()
	// Re-key row 2 under a value its heap row does not hold: the stale key
	// and the missing true key must both surface.
	if err := tree.Delete(value.NewText("ftsI").EncodeKey(nil), rowIDBytes(2)); err != nil {
		t.Fatal(err)
	}
	tree.Insert(value.NewText("WRONG").EncodeKey(nil), rowIDBytes(2))
	problems := tbl.CheckIntegrity()
	if len(problems) == 0 {
		t.Fatal("re-keyed index entry not detected")
	}
}

func TestCheckIntegrityDetectsNextRowTooLow(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tbl.nextRow = 2 // rows 1..3 exist, so the next insert would collide
	tbl.mu.Unlock()
	requireProblem(t, tbl.CheckIntegrity(), "next-RowID")
}
