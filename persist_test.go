package bdbms_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bdbms"
	"bdbms/internal/errcode"
)

// persistWorkload is the public-API durability workload: DDL, DML, secondary
// indexes, annotation tables and annotations.
var persistWorkload = []string{
	`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GLen INT)`,
	`CREATE INDEX ON Gene (GLen)`,
	`INSERT INTO Gene VALUES ('JW0080', 'mraW', 945), ('JW0081', 'fruL', 189), ('JW0082', 'ftsI', 1767)`,
	`CREATE ANNOTATION TABLE Comments ON Gene`,
	`ADD ANNOTATION TO Gene.Comments VALUE 'long gene' ON (SELECT GID FROM Gene WHERE GLen > 900)`,
	`UPDATE Gene SET GName = 'fruL-renamed' WHERE GID = 'JW0081'`,
	`DELETE FROM Gene WHERE GID = 'JW0082'`,
	`INSERT INTO Gene VALUES ('JW0083', 'yabB', 327)`,
}

func renderRows(t *testing.T, rows *bdbms.Rows) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(strings.Join(rows.Columns(), ","))
	for rows.Next() {
		row := rows.Row()
		parts := make([]string, len(row.Values))
		for i, v := range row.Values {
			parts[i] = v.String()
		}
		b.WriteString("\n" + strings.Join(parts, "|"))
		var anns []string
		for _, a := range row.AnnotationsFlat() {
			anns = append(anns, fmt.Sprintf("[%s/%s/%s]", a.AnnTable, a.Author, a.PlainBody()))
		}
		sort.Strings(anns)
		b.WriteString(strings.Join(anns, ""))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return b.String()
}

// TestDataFilePersistence closes and reopens a file-backed database through
// the public API and checks the reopened database answers queries —
// streaming cursors and prepared statements included — identically to a
// database that never closed.
func TestDataFilePersistence(t *testing.T) {
	dataFile := filepath.Join(t.TempDir(), "genes.db")

	db, err := bdbms.OpenWith(bdbms.Options{DataFile: dataFile})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range persistWorkload {
		db.MustExec(stmt)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := bdbms.OpenWith(bdbms.Options{DataFile: dataFile})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()

	oracle := bdbms.Open()
	defer oracle.Close()
	for _, stmt := range persistWorkload {
		oracle.MustExec(stmt)
	}

	queries := []string{
		`SELECT GID, GName, GLen FROM Gene`,
		`SELECT GID FROM Gene WHERE GLen > 300`, // pushed into the recovered index
		`SELECT GID, GLen FROM Gene ANNOTATION(*) WHERE GLen > 100`,
	}
	ctx := context.Background()
	for _, q := range queries {
		wr, err := oracle.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := reopened.Query(ctx, q)
		if err != nil {
			t.Fatalf("reopened %q: %v", q, err)
		}
		want, got := renderRows(t, wr), renderRows(t, gr)
		wr.Close()
		gr.Close()
		if want != got {
			t.Errorf("%q differs after reopen\n got: %s\nwant: %s", q, got, want)
		}
	}

	// Prepared statements with index probes work against recovered trees.
	stmt, err := reopened.Prepare(`SELECT GName FROM Gene WHERE GID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec("JW0081")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0].String() != "fruL-renamed" {
		t.Errorf("prepared probe on reopened db = %+v", res.Rows)
	}

	// The reopened database accepts further writes that survive another
	// round trip.
	reopened.MustExec(`INSERT INTO Gene VALUES ('JW0084', 'mog', 585)`)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := bdbms.OpenWith(bdbms.Options{DataFile: dataFile})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	res = third.MustExec(`SELECT GID FROM Gene`)
	if len(res.Rows) != 4 {
		t.Errorf("third open sees %d rows, want 4", len(res.Rows))
	}
}

// TestDataFileFreshStartsEmpty double-checks that a brand-new data file
// yields an empty catalog rather than an error.
func TestDataFileFreshStartsEmpty(t *testing.T) {
	db, err := bdbms.OpenWith(bdbms.Options{DataFile: filepath.Join(t.TempDir(), "new.db")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := len(db.Storage().Tables()); n != 0 {
		t.Errorf("fresh data file has %d tables", n)
	}
}

// TestWriteAfterCloseIsRefused holds a session across DB.Close: the write it
// then attempts must fail with storage.closed and leave no trace — not be
// acknowledged into a log that no longer reaches the file and lost on reopen.
func TestWriteAfterCloseIsRefused(t *testing.T) {
	dataFile := filepath.Join(t.TempDir(), "genes.db")
	db, err := bdbms.OpenWith(bdbms.Options{DataFile: dataFile})
	if err != nil {
		t.Fatal(err)
	}
	sess := db.Session("admin")
	if _, err := sess.Exec(`CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, GName TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`INSERT INTO Gene VALUES (1, 'mraW')`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = sess.Exec(`INSERT INTO Gene VALUES (2, 'fruL')`)
	if got := errcode.FromError(err); got != errcode.Closed {
		t.Fatalf("INSERT after Close: err = %v (code %q), want code %q", err, got, errcode.Closed)
	}
	// The refused statement rolled back in memory like any failed append.
	if res, err := sess.Exec(`SELECT COUNT(*) FROM Gene`); err != nil || res.Rows[0].Values[0].Int() != 1 {
		t.Errorf("closed database after the refused INSERT: %+v, %v; want 1 row", res, err)
	}

	reopened, err := bdbms.OpenWith(bdbms.Options{DataFile: dataFile})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if res := reopened.MustExec(`SELECT GID FROM Gene`); len(res.Rows) != 1 {
		t.Errorf("reopened table holds %d rows, want exactly the acknowledged one", len(res.Rows))
	}
}
