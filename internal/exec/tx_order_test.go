package exec

// Rollback order over one shared sequence. Row changes (storage version
// entries) and the compensating closures of DDL sit on the same undo log;
// these are the interleavings where reverting them newest first matters —
// a row change must find its table re-attached, an index build must be
// dropped before (or after) the rows under it go back, a freed primary key
// must be re-taken in the right order — each checked against the
// pre-transaction SELECT output, the integrity scrub, and a snapshot opened
// before the transaction that must read the same rows throughout.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bdbms/internal/storage"
)

const selectAcct = `SELECT ID, Name, Bal FROM Acct ORDER BY ID`

func renderRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row.Values.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// snapshotDump renders every row of tbl as snap sees it.
func snapshotDump(t *testing.T, snap *storage.Snapshot, tbl *storage.Table) string {
	t.Helper()
	var b strings.Builder
	for _, id := range snap.RowIDs(tbl) {
		row, err := snap.Get(tbl, id)
		if err != nil {
			continue // a candidate RowID the snapshot does not see
		}
		fmt.Fprintf(&b, "%d=%s\n", id, row)
	}
	return b.String()
}

func TestRollbackOrderAcrossRowsAndDDL(t *testing.T) {
	cases := []struct {
		name string
		// stmts run inside the transaction; a "!" prefix marks a statement
		// that must fail (and roll back alone).
		stmts []string
		// mid is the SELECT output expected inside the transaction after
		// stmts and before the final ROLLBACK.
		mid string
	}{
		{
			name: "row change under a dropped table, rolled back to a savepoint",
			stmts: []string{
				`SAVEPOINT a`,
				`INSERT INTO Acct VALUES (4, 'dan', 40)`,
				`UPDATE Acct SET Bal = 11 WHERE ID = 1`,
				`DROP TABLE Acct`,
				`ROLLBACK TO SAVEPOINT a`,
			},
			mid: "(1, ann, 10)\n(2, bob, 20)\n(3, cy, 30)\n",
		},
		{
			name: "created table with rows",
			stmts: []string{
				`CREATE TABLE Fresh (ID INT NOT NULL PRIMARY KEY, Name TEXT, Bal INT)`,
				`INSERT INTO Fresh VALUES (1, 'x', 1), (2, 'y', 2)`,
				`UPDATE Fresh SET Bal = 3 WHERE ID = 2`,
				`DELETE FROM Acct WHERE ID = 2`,
			},
			mid: "(1, ann, 10)\n(3, cy, 30)\n",
		},
		{
			name: "update then index build",
			stmts: []string{
				`UPDATE Acct SET Name = 'zed' WHERE ID = 1`,
				`CREATE INDEX ON Acct (Name)`,
				`DELETE FROM Acct WHERE ID = 3`,
			},
			mid: "(1, zed, 10)\n(2, bob, 20)\n",
		},
		{
			name: "index build then update",
			stmts: []string{
				`CREATE INDEX ON Acct (Name)`,
				`UPDATE Acct SET Name = 'zed' WHERE ID = 1`,
				`UPDATE Acct SET Name = NULL WHERE ID = 2`,
				`INSERT INTO Acct VALUES (4, 'bob', 40)`,
			},
			mid: "(1, zed, 10)\n(2, NULL, 20)\n(3, cy, 30)\n(4, bob, 40)\n",
		},
		{
			name: "failed multi-row insert re-taking a key the transaction freed",
			stmts: []string{
				`UPDATE Acct SET ID = 50 WHERE ID = 1`,
				`!INSERT INTO Acct VALUES (1, 'new', 1), (7, 'ok', 7), (2, 'dup', 2)`,
				`UPDATE Acct SET Bal = 51 WHERE ID = 50`,
			},
			mid: "(2, bob, 20)\n(3, cy, 30)\n(50, ann, 51)\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSession(t)
			mustExec(t, s, `CREATE TABLE Acct (ID INT NOT NULL PRIMARY KEY, Name TEXT, Bal INT)`)
			mustExec(t, s, `INSERT INTO Acct VALUES (1, 'ann', 10), (2, 'bob', 20), (3, 'cy', 30)`)
			before := renderRows(mustExec(t, s, selectAcct))
			acct, err := s.Eng.Table("Acct")
			if err != nil {
				t.Fatal(err)
			}
			snap := s.Eng.NewSnapshot()
			defer snap.Close()
			snapBefore := snapshotDump(t, snap, acct)
			if snapBefore == "" {
				t.Fatal("snapshot sees no rows")
			}

			tx, err := s.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range tc.stmts {
				wantErr := strings.HasPrefix(sql, "!")
				_, err := tx.Exec(strings.TrimPrefix(sql, "!"))
				if (err != nil) != wantErr {
					t.Fatalf("%s: error = %v, want failure = %v", sql, err, wantErr)
				}
				if got := snapshotDump(t, snap, acct); got != snapBefore {
					t.Fatalf("after %s the earlier snapshot reads:\n%s\nwant:\n%s", sql, got, snapBefore)
				}
			}
			res, err := tx.Exec(selectAcct)
			if err != nil {
				t.Fatal(err)
			}
			if mid := renderRows(res); mid != tc.mid {
				t.Fatalf("inside the transaction:\n%s\nwant:\n%s", mid, tc.mid)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}

			if got := renderRows(mustExec(t, s, selectAcct)); got != before {
				t.Errorf("after ROLLBACK:\n%s\nwant the pre-transaction rows:\n%s", got, before)
			}
			if got := snapshotDump(t, snap, acct); got != snapBefore {
				t.Errorf("after ROLLBACK the earlier snapshot reads:\n%s\nwant:\n%s", got, snapBefore)
			}
			if s.Eng.HasTable("Fresh") {
				t.Error("rolled-back CREATE TABLE left the table behind")
			}
			live, err := s.Eng.Table("Acct")
			if err != nil || live != acct {
				t.Fatalf("Acct after ROLLBACK is %p (%v), want the original table %p", live, err, acct)
			}
			if acct.HasIndex("Name") {
				t.Error("rolled-back CREATE INDEX left the index behind")
			}
			if problems := acct.CheckIntegrity(); len(problems) != 0 {
				t.Errorf("integrity after ROLLBACK: %v", problems)
			}
			// The table takes writes again, under its original keys.
			mustExec(t, s, `INSERT INTO Acct VALUES (4, 'eve', 40)`)
			mustExec(t, s, `UPDATE Acct SET Bal = 12 WHERE ID = 1`)
			if problems := acct.CheckIntegrity(); len(problems) != 0 {
				t.Errorf("integrity after post-rollback writes: %v", problems)
			}
		})
	}
}
