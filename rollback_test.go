package bdbms_test

// Rollback takes everything a failed write did with it: the row change, and
// the approval operation and dependency marks recorded beside it.

import (
	"context"
	"errors"
	"testing"

	"bdbms"
	"bdbms/internal/dependency"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

func rowsOf(t *testing.T, db *bdbms.DB, sql string) string {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, row := range res.Rows {
		out += row.Values.String() + "\n"
	}
	return out
}

// TestFailedApprovalAppendLeavesNoPendingOperation: an UPDATE of a monitored
// column whose approval record cannot be appended fails and rolls back — and
// no pending operation survives it, or a later DISAPPROVE would run the
// inverse of a change that never happened.
func TestFailedApprovalAppendLeavesNoPendingOperation(t *testing.T) {
	db := bdbms.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE G (ID INT NOT NULL PRIMARY KEY, Name TEXT)`)
	db.MustExec(`INSERT INTO G VALUES (1, 'a')`)
	db.MustExec(`START CONTENT APPROVAL ON G COLUMNS (Name) APPROVED BY admin`)

	// TxBegin and the row record reach the log; the approval record does not.
	db.Storage().WAL().FailAfter(2)
	_, err := db.Exec(`UPDATE G SET Name = 'b' WHERE ID = 1`)
	db.Storage().WAL().FailAfter(-1)
	if !errors.Is(err, wal.ErrInjectedFailure) {
		t.Fatalf("UPDATE with a failing approval append = %v, want the injected failure", err)
	}
	if got := rowsOf(t, db, `SELECT ID, Name FROM G`); got != "(1, a)\n" {
		t.Errorf("rows after the failed UPDATE:\n%s", got)
	}
	if n := len(db.Authorization().Pending("G")); n != 0 {
		t.Fatalf("%d pending operation(s) after the failed UPDATE, want 0", n)
	}

	db.MustExec(`UPDATE G SET Name = 'c' WHERE ID = 1`)
	pending := db.Authorization().Pending("G")
	if len(pending) != 1 {
		t.Fatalf("%d pending operations after one monitored UPDATE, want 1", len(pending))
	}
	db.MustExec(`DISAPPROVE OPERATION 1`)
	if got := rowsOf(t, db, `SELECT ID, Name FROM G`); got != "(1, a)\n" {
		t.Errorf("rows after DISAPPROVE:\n%s", got)
	}
}

// TestCascadeErrorFailsTheWrite: when an executable dependency rule cannot
// recompute its target, the write that triggered it fails and rolls back —
// it must not commit a source change whose dependents are neither
// recomputed nor marked outdated.
func TestCascadeErrorFailsTheWrite(t *testing.T) {
	db := bdbms.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE G (ID INT NOT NULL PRIMARY KEY, Seq SEQUENCE, Score INT)`)
	db.MustExec(`INSERT INTO G VALUES (1, 'AC', 10)`)
	offline := errors.New("scoring tool offline")
	if _, err := db.Dependencies().AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "G", Column: "Seq"}},
		Targets: []dependency.ColumnRef{{Table: "G", Column: "Score"}},
		Proc: dependency.Procedure{Name: "score", Executable: true,
			Apply: func([]value.Value) (value.Value, error) { return value.Value{}, offline }},
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := db.Exec(`UPDATE G SET Seq = 'GG' WHERE ID = 1`); !errors.Is(err, offline) {
		t.Fatalf("UPDATE whose cascade fails = %v, want the procedure's error", err)
	}
	if got := rowsOf(t, db, `SELECT ID, Seq, Score FROM G`); got != "(1, AC, 10)\n" {
		t.Errorf("rows after the failed UPDATE:\n%s", got)
	}

	// Inside a transaction the statement fails alone.
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE G SET Score = 5 WHERE ID = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE G SET Seq = 'TT' WHERE ID = 1`); !errors.Is(err, offline) {
		t.Fatalf("in-transaction UPDATE whose cascade fails = %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, db, `SELECT ID, Seq, Score FROM G`); got != "(1, AC, 5)\n" {
		t.Errorf("rows after the transaction:\n%s", got)
	}
	if cells := db.Dependencies().OutdatedCells(); len(cells) != 0 {
		t.Errorf("outdated cells after failed cascades: %v", cells)
	}
}

// TestRollbackOfDropTableKeepsItsAnnotationTables: DROP TABLE takes the
// table's annotation-table definitions out of the catalog; rolling the drop
// back must bring them back with the table.
func TestRollbackOfDropTableKeepsItsAnnotationTables(t *testing.T) {
	db := bdbms.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE G (ID INT NOT NULL PRIMARY KEY, Name TEXT)`)
	db.MustExec(`INSERT INTO G VALUES (1, 'a')`)
	db.MustExec(`CREATE ANNOTATION TABLE Notes ON G CATEGORY 'comment'`)
	db.MustExec(`ADD ANNOTATION TO G.Notes VALUE 'kept' ON (SELECT * FROM G)`)

	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DROP TABLE G`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	defs := db.Storage().Catalog().AnnotationTables("G")
	if len(defs) != 1 || defs[0].Name != "Notes" || defs[0].Category != "comment" {
		t.Fatalf("annotation tables of G after the rolled-back drop: %+v", defs)
	}
	db.MustExec(`ADD ANNOTATION TO G.Notes VALUE 'still usable' ON (SELECT Name FROM G)`)
	if n := db.Annotations().Count("G"); n != 2 {
		t.Errorf("G has %d annotations, want 2", n)
	}
}
