package replay_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"bdbms/internal/core"
	"bdbms/internal/dependency"
	"bdbms/internal/replay"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// dump renders every piece of state a record can change; withOps adds the
// approval operations, which no record redoes (they are session-scoped).
func dump(t *testing.T, db *core.DB, withOps bool) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range db.Storage().Tables() {
		fmt.Fprintf(&b, "table %s indexes %v anntables", tbl.Name(), tbl.IndexColumns())
		for _, def := range db.Storage().Catalog().AnnotationTables(tbl.Name()) {
			fmt.Fprintf(&b, " %s/%s", def.Name, def.Category)
		}
		b.WriteByte('\n')
		if err := tbl.Scan(func(rowID int64, row value.Row) bool {
			fmt.Fprintf(&b, "  %d=%s\n", rowID, row)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	anns, _ := db.Annotations().Snapshot()
	for _, a := range anns {
		fmt.Fprintf(&b, "ann %d %s.%s archived=%v at=%s\n", a.ID, a.UserTable, a.AnnTable, a.Archived, a.ArchivedAt.UTC().Format(time.RFC3339Nano))
	}
	if withOps {
		for _, op := range db.Authorization().Operations("", "") {
			fmt.Fprintf(&b, "op %d %s\n", op.ID, op.Status)
		}
	}
	fmt.Fprintf(&b, "outdated %v agents %v\n", db.Dependencies().OutdatedCells(), db.Provenance().Agents())
	return b.String()
}

// TestEveryDataKindHasRedoAndUndo runs, per data record kind, a statement
// that logs it inside a transaction, then takes the transaction's frame
// through the dispatch: undo must restore the state before the statement,
// redo the state after it (approval operations aside: that state is
// session-scoped, so an approval record's redo changes nothing), and undoing
// again must be harmless. Every
// kind wal defines that is not transaction framing must have a case.
func TestEveryDataKindHasRedoAndUndo(t *testing.T) {
	const setup = `
		CREATE TABLE G (ID INT NOT NULL PRIMARY KEY, Name TEXT, Seq SEQUENCE, Score INT);
		INSERT INTO G VALUES (1, 'a', 'AC', 10), (2, 'b', 'GT', 20);
		CREATE ANNOTATION TABLE Notes ON G CATEGORY 'comment';
		ADD ANNOTATION TO G.Notes VALUE 'n' ON (SELECT Name FROM G WHERE ID = 1);
		ARCHIVE ANNOTATION FROM G.Notes ON (SELECT * FROM G);
		ADD ANNOTATION TO G.Notes VALUE 'm' ON (SELECT * FROM G WHERE ID = 2);
		START CONTENT APPROVAL ON G COLUMNS (Name) APPROVED BY admin;
		UPDATE G SET Name = 'c' WHERE ID = 2;`
	cases := []struct {
		kind  wal.Kind
		stmts []string
	}{
		{wal.KindInsert, []string{`INSERT INTO G VALUES (3, 'x', 'TT', 30)`}},
		{wal.KindUpdate, []string{`UPDATE G SET Score = 11 WHERE ID = 1`}},
		{wal.KindDelete, []string{`DELETE FROM G WHERE ID = 1`}},
		{wal.KindApproval, []string{`UPDATE G SET Name = 'z' WHERE ID = 1`, `APPROVE OPERATION 1`}},
		{wal.KindApproval, []string{`DISAPPROVE OPERATION 1`}},
		{wal.KindCheckpoint, nil},
		{wal.KindAnnotation, []string{`ADD ANNOTATION TO G.Notes VALUE 'o' ON (SELECT * FROM G)`}},
		{wal.KindCreateTable, []string{`CREATE TABLE H (X INT)`}},
		{wal.KindDropTable, []string{`DROP TABLE G`}},
		{wal.KindCreateIndex, []string{`CREATE INDEX ON G (Score)`}},
		{wal.KindCreateAnnTable, []string{`CREATE ANNOTATION TABLE Lab ON G`}},
		{wal.KindDropAnnTable, []string{`DROP ANNOTATION TABLE Notes ON G`}},
		{wal.KindAnnArchive, []string{`RESTORE ANNOTATION FROM G.Notes ON (SELECT * FROM G)`, `ARCHIVE ANNOTATION FROM G.Notes ON (SELECT * FROM G)`}},
		{wal.KindDepMark, []string{`UPDATE G SET Seq = 'GG' WHERE ID = 1`}},
		{wal.KindProvAgent, []string{`\register curator`, `\unregister loader`}},
	}
	covered := map[wal.Kind]bool{}
	for _, tc := range cases {
		covered[tc.kind] = true
		t.Run(tc.kind.String()+"/"+strings.Join(tc.stmts, ";"), func(t *testing.T) {
			db := core.MustOpen(core.Options{})
			if _, err := db.ExecAll(setup); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Dependencies().AddRule(dependency.Rule{
				Sources: []dependency.ColumnRef{{Table: "G", Column: "Seq"}},
				Targets: []dependency.ColumnRef{{Table: "G", Column: "Score"}},
				Proc:    dependency.Procedure{Name: "score"},
			}); err != nil {
				t.Fatal(err)
			}
			if err := db.Provenance().RegisterAgent("loader"); err != nil {
				t.Fatal(err)
			}
			target := replay.Target{Eng: db.Storage(), Ann: db.Annotations(), Dep: db.Dependencies(),
				Prov: db.Provenance(), Auth: db.Authorization()}
			before := dump(t, db, true)

			tx, err := db.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(`SAVEPOINT armed`); err != nil {
				t.Fatal(err)
			}
			for _, sql := range tc.stmts {
				switch {
				case strings.HasPrefix(sql, `\register `):
					err = db.Provenance().RegisterAgent(strings.TrimPrefix(sql, `\register `))
				case strings.HasPrefix(sql, `\unregister `):
					err = db.Provenance().UnregisterAgent(strings.TrimPrefix(sql, `\unregister `))
				default:
					_, err = tx.Exec(sql)
				}
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			recs, err := db.Storage().WAL().FrameTail(0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.kind == wal.KindCheckpoint {
				// Nothing logs one inside a frame; the dispatch still knows it.
				recs = append(recs, wal.Record{Kind: wal.KindCheckpoint})
			}
			logged := false
			for _, rec := range recs {
				logged = logged || rec.Kind == tc.kind
			}
			if !logged {
				t.Fatalf("the statements logged no %s record", tc.kind)
			}
			after := dump(t, db, false)

			if err := target.Undo(recs); err != nil {
				t.Fatal(err)
			}
			if got := dump(t, db, true); got != before {
				t.Fatalf("undo:\n%s\nwant the state before:\n%s", got, before)
			}
			for _, rec := range recs {
				if err := target.Apply(rec, false); err != nil {
					t.Fatal(err)
				}
			}
			if got := dump(t, db, false); got != after {
				t.Fatalf("redo:\n%s\nwant the state after:\n%s", got, after)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			if got := dump(t, db, true); got != before {
				t.Fatalf("rollback after undo and redo:\n%s\nwant:\n%s", got, before)
			}
		})
	}
	for k := wal.Kind(1); k.String() != fmt.Sprintf("KIND(%d)", k); k++ {
		if !k.IsTxControl() && !covered[k] {
			t.Errorf("record kind %s has no case: give it a redo and an undo in replay.Target.Apply", k)
		}
	}
}

// TestUndoRunsEveryRecordAndJoinsErrors: a record that cannot be undone does
// not stop the ones before it from being undone; its error is reported.
func TestUndoRunsEveryRecordAndJoinsErrors(t *testing.T) {
	db := core.MustOpen(core.Options{})
	if _, err := db.ExecAll(`CREATE TABLE T (N INT NOT NULL PRIMARY KEY); INSERT INTO T VALUES (1); INSERT INTO T VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	for _, rec := range db.Storage().WAL().Records() {
		if rec.Kind == wal.KindInsert {
			recs = append(recs, rec)
		}
	}
	bad := wal.Record{LSN: 99, Kind: wal.KindAnnotation, Table: "T", Payload: []byte("{not json")}
	recs = []wal.Record{recs[0], bad, recs[1]}
	err := replay.Target{Eng: db.Storage(), Ann: db.Annotations()}.Undo(recs)
	if err == nil || !strings.Contains(err.Error(), "LSN 99") {
		t.Fatalf("Undo = %v, want the undecodable record's error", err)
	}
	if tbl, _ := db.Storage().Table("T"); tbl.RowCount() != 0 {
		t.Fatalf("%d rows left: a failing record stopped the undo", tbl.RowCount())
	}
}
