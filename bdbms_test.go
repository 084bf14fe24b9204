package bdbms

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"bdbms/internal/dependency"
	"bdbms/internal/provenance"
	"bdbms/internal/value"
)

func TestOpenExecQueryRender(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec("CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
	db.MustExec("CREATE ANNOTATION TABLE GAnnotation ON Gene")
	db.MustExec("INSERT INTO Gene VALUES ('JW0080', 'mraW', 'ATGATGG'), ('JW0055', 'yabP', 'ATGAAAG')")
	db.MustExec(`ADD ANNOTATION TO Gene.GAnnotation
		VALUE '<Annotation>obtained from RegulonDB</Annotation>'
		ON (SELECT * FROM Gene WHERE GID = 'JW0080')`)

	res, err := db.Exec("SELECT GID, GName FROM Gene ANNOTATION(GAnnotation) ORDER BY GID")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	rendered := Render(res)
	if !strings.Contains(rendered, "JW0080") || !strings.Contains(rendered, "RegulonDB") {
		t.Errorf("render = %s", rendered)
	}
	if !strings.Contains(rendered, "(2 row(s))") {
		t.Errorf("render footer missing: %s", rendered)
	}
	if Render(nil) != "" {
		t.Error("nil render should be empty")
	}
	ddl := db.MustExec("CREATE TABLE T2 (x INT)")
	if !strings.Contains(Render(ddl), "created") {
		t.Error("DDL render missing message")
	}
}

func TestMustExecPanics(t *testing.T) {
	db := Open()
	defer db.Close()
	defer func() {
		if recover() == nil {
			t.Error("MustExec should panic on bad SQL")
		}
	}()
	db.MustExec("THIS IS NOT SQL")
}

func TestExecAllAndManagers(t *testing.T) {
	db := Open()
	defer db.Close()
	results, err := db.ExecAll(`
		CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE);
		CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, PFunction TEXT);
		INSERT INTO Gene VALUES ('JW0080', 'ATGATG');
		INSERT INTO Protein VALUES ('pmraW', 'JW0080', 'MKV', 'Cell wall formation');
	`)
	if err != nil || len(results) != 4 {
		t.Fatalf("ExecAll: %v (%d results)", err, len(results))
	}

	// Direct manager access: dependency rule + cascade.
	dep := db.Dependencies()
	if _, err := dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Protein", Column: "PSequence"}},
		Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PFunction"}},
		Proc:    dependency.Procedure{Name: "Lab experiment"},
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("UPDATE Protein SET PSequence = 'MKVNEW' WHERE GID = 'JW0080'")
	if !dep.IsOutdated("Protein", 1, "PFunction") {
		t.Error("dependency cascade not wired through the facade")
	}

	// Provenance through the facade.
	prov := db.Provenance()
	prov.RegisterAgent("loader")
	if _, err := prov.Attach("loader", "Gene",
		provenance.Record{Source: "RegulonDB", Action: provenance.ActionCopy},
		[]Region{{Table: "Gene", ColStart: 0, ColEnd: 1, RowStart: 1, RowEnd: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := prov.Sources("Gene", 1, 0); len(got) != 1 || got[0] != "RegulonDB" {
		t.Errorf("sources = %v", got)
	}

	// Authorization and storage access.
	db.Authorization().Grant("bob", "Gene", "SELECT")
	if !db.Authorization().Check("bob", "Gene", "SELECT") {
		t.Error("authorization manager not wired")
	}
	if db.Storage().PagerStats().Allocs == 0 {
		t.Error("storage stats not reachable")
	}
	if db.Annotations().Count("Gene") != 1 {
		t.Error("annotation manager not wired")
	}
}

func TestSessionsAndEnforcement(t *testing.T) {
	db, err := OpenWith(Options{EnforceAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Authorization().MakeAdmin("admin")
	db.MustExec("CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY)")
	db.MustExec("INSERT INTO Gene VALUES ('JW0080')")

	bob := db.Session("bob")
	if _, err := bob.Exec("SELECT * FROM Gene"); err == nil {
		t.Error("bob should be denied before GRANT")
	}
	db.MustExec("GRANT SELECT ON Gene TO bob")
	if _, err := bob.Exec("SELECT * FROM Gene"); err != nil {
		t.Errorf("bob denied after GRANT: %v", err)
	}
}

func TestFileBackedDatabase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bdbms.data")
	db, err := OpenWith(Options{DataFile: path, PoolSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)")
	for i := 0; i < 200; i++ {
		db.MustExec("INSERT INTO Gene VALUES ('JW" + value.NewInt(int64(i)).String() + "', 'ATGATGATG')")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The page file exists and is non-trivial.
	if db.Storage().PagerStats().Writes == 0 {
		t.Error("no pages written to the data file")
	}
	if _, err := OpenWith(Options{DataFile: filepath.Join(t.TempDir(), "missing-dir", "x.db")}); err == nil {
		t.Error("opening a data file in a missing directory should fail")
	}
}

func TestCellLevelAnnotationOption(t *testing.T) {
	db, err := OpenWith(Options{CellLevelAnnotations: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Annotations().StoreName() != "cell" {
		t.Errorf("store = %s", db.Annotations().StoreName())
	}
	db.MustExec("CREATE TABLE G (a TEXT, b TEXT)")
	db.MustExec("CREATE ANNOTATION TABLE Ann ON G")
	db.MustExec("INSERT INTO G VALUES ('x', 'y'), ('z', 'w')")
	db.MustExec(`ADD ANNOTATION TO G.Ann VALUE '<Annotation>note</Annotation>' ON (SELECT * FROM G)`)
	// 2 rows x 2 columns = 4 cell records under the naive scheme.
	if got := db.Annotations().StorageRecords(); got != 4 {
		t.Errorf("cell records = %d", got)
	}
}

// --- cursor API -------------------------------------------------------------------------

// TestQueryFirstRowWithoutMaterializing asserts the streaming cursor's core
// promise: fetching the first row of a query over a large table costs a
// small, table-size-independent number of allocations. Materializing would
// allocate several objects per row (5000 rows here).
func TestQueryFirstRowWithoutMaterializing(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, Score INT)`)
	ins, err := db.Prepare(`INSERT INTO Gene VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 5000
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(fmt.Sprintf("G%05d", i), "name", i); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		r, err := db.Query(context.Background(), `SELECT GID, GName FROM Gene`)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Next() {
			t.Fatal("no rows")
		}
		r.Close()
	})
	// A materialized result would need >= 3 allocations per row (ARow
	// values, anns, slice growth) — 15000+ here. The streaming path is a
	// few hundred (dominated by parse + the RowID listing).
	if allocs > float64(rows) {
		t.Errorf("first row cost %.0f allocations; cursor appears to materialize", allocs)
	}
	t.Logf("first-row allocations over %d rows: %.0f", rows, allocs)
}

// TestQueryContextCancelFacade is the acceptance check that a canceled
// context aborts a long scan with context.Canceled at the public API.
func TestQueryContextCancelFacade(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (A INT)`)
	for i := 0; i < 500; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.Query(ctx, `SELECT A FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", rows.Err())
	}
}

// TestConcurrentSessions is the stress test of the engine-wide session
// lock: parallel streaming readers and one writer run against the same DB.
// It must pass under -race (CI runs the test step with -race).
func TestConcurrentSessions(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, Score INT)`)
	db.MustExec(`CREATE ANNOTATION TABLE Ann ON Gene`)
	for i := 0; i < 300; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO Gene VALUES ('G%04d', 'n%d', %d)`, i, i, i%7))
	}
	db.MustExec(`ADD ANNOTATION TO Gene.Ann VALUE '<Annotation>seed</Annotation>' ON (SELECT GName FROM Gene)`)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := db.Session(fmt.Sprintf("reader%d", id))
			q, err := sess.Prepare(`SELECT GID, GName FROM Gene ANNOTATION(Ann) WHERE Score = ?`)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := q.Query(context.Background(), i%7)
				if err != nil {
					t.Error(err)
					return
				}
				for rows.Next() {
					if len(rows.Row().Values) != 2 {
						t.Error("short row")
					}
				}
				rows.Close()
				if rows.Err() != nil {
					t.Error(rows.Err())
					return
				}
			}
		}(g)
	}
	writer := db.Session("writer")
	ins, err := writer.Prepare(`INSERT INTO Gene VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := writer.Prepare(`UPDATE Gene SET Score = ? WHERE GID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := ins.Exec(fmt.Sprintf("W%04d", i), "w", i%7); err != nil {
			t.Fatal(err)
		}
		if _, err := upd.Exec((i+1)%7, fmt.Sprintf("W%04d", i)); err != nil {
			t.Fatal(err)
		}
		if i%40 == 0 {
			// Mix in DDL so prepared readers exercise plan invalidation.
			if _, err := writer.Exec(`CREATE INDEX ON Gene (Score)`); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	res := db.MustExec(`SELECT COUNT(*) FROM Gene`)
	if res.Rows[0].Values[0].Int() != 420 {
		t.Errorf("row count = %v", res.Rows[0].Values[0])
	}
}

// TestAnnotatedReadsBesideConcurrentAnnotator has one session keep adding
// annotations while another reads the annotated table: under -race, an
// R-tree searched while an insert restructures it is reported. Every read
// must see the annotations of every add that finished before it started.
func TestAnnotatedReadsBesideConcurrentAnnotator(t *testing.T) {
	const adds = 150
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, GName TEXT, Seq TEXT)`)
	db.MustExec(`CREATE ANNOTATION TABLE Curation ON Gene`)
	for i := 1; i <= 200; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO Gene VALUES (%d, 'g%d', 'ACGT%d')`, i, i, i))
	}
	var added atomic.Int64
	done := make(chan error, 1)
	go func() {
		w := db.Session("curator")
		for i := 0; i < adds; i++ {
			lo := 1 + (i*37)%180
			if _, err := w.Exec(fmt.Sprintf(`ADD ANNOTATION TO Gene.Curation VALUE 'c%d' ON (SELECT Seq FROM Gene WHERE GID >= %d AND GID <= %d)`, i, lo, lo+15)); err != nil {
				done <- err
				return
			}
			added.Add(1)
		}
		done <- nil
	}()
	r := db.Session("analyst")
	for i := 0; ; i++ {
		before := added.Load()
		rows, err := r.Query(context.Background(), `SELECT GID, Seq FROM Gene ANNOTATION(*) WHERE GID >= 1 AND GID <= 200`)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for rows.Next() {
			for _, a := range rows.Row().AnnotationsFlat() {
				seen[a.ID] = true
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if int64(len(seen)) < before {
			t.Fatalf("read %d saw %d annotations; %d adds had finished before it", i, len(seen), before)
		}
		if before == adds {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRenderRuneTruncation verifies cells are truncated on rune boundaries:
// multi-byte UTF-8 content must never be split mid-sequence.
func TestRenderRuneTruncation(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE Note (ID INT NOT NULL PRIMARY KEY, Body TEXT)`)
	long := strings.Repeat("génèse→", 12) // multi-byte runes, > 40 runes
	stmt, err := db.Prepare(`INSERT INTO Note VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(1, long); err != nil {
		t.Fatal(err)
	}
	res := db.MustExec(`SELECT ID, Body FROM Note`)
	rendered := Render(res)
	if !utf8.ValidString(rendered) {
		t.Fatalf("Render produced invalid UTF-8: %q", rendered)
	}
	if !strings.Contains(rendered, "...") {
		t.Error("long cell was not truncated")
	}
	if got := TruncateCell(long, 40); utf8.RuneCountInString(got) != 40 || !utf8.ValidString(got) {
		t.Errorf("TruncateCell = %q (%d runes)", got, utf8.RuneCountInString(got))
	}
	if got := TruncateCell("short", 40); got != "short" {
		t.Errorf("TruncateCell(short) = %q", got)
	}
}

// Example is the runnable quickstart from README.md: go test executes it and
// verifies the printed output, so the documented code cannot rot.
func Example() {
	db := Open()
	defer db.Close()

	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, Score INT)`)
	ins, _ := db.Prepare(`INSERT INTO Gene VALUES (?, ?, ?)`)
	ins.Exec("JW0080", "mraW", 72)
	ins.Exec("JW0055", "yabP", 41)
	ins.Exec("JW0082", "ftsI", 90)

	// Stream the two best-scoring genes: ORDER BY + LIMIT runs through a
	// Top-N heap, and Score does not need to be in the SELECT list.
	rows, _ := db.Query(context.Background(), `SELECT GID, GName FROM Gene ORDER BY Score DESC LIMIT 2`)
	defer rows.Close()
	for rows.Next() {
		var gid, name string
		rows.Scan(&gid, &name)
		fmt.Println(gid, name)
	}

	// Transactions are serializable and atomic; ROLLBACK reverts everything.
	tx, _ := db.Begin(context.Background())
	tx.Exec(`UPDATE Gene SET Score = 0 WHERE GID = 'JW0082'`)
	tx.Rollback()
	res := db.MustExec(`SELECT Score FROM Gene WHERE GID = 'JW0082'`)
	fmt.Println("score after rollback:", res.Rows[0].Values[0].String())

	// Output:
	// JW0082 ftsI
	// JW0080 mraW
	// score after rollback: 90
}

// Example_annotationPropagation shows the paper's core feature: annotations
// attach to query-defined regions and propagate through SELECT, grouping and
// set operations to the result cells they cover.
func Example_annotationPropagation() {
	db := Open()
	defer db.Close()

	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
	db.MustExec(`CREATE ANNOTATION TABLE Curation ON Gene`)
	db.MustExec(`INSERT INTO Gene VALUES ('JW0080', 'ATGATGG'), ('JW0055', 'ATGAAAG')`)
	db.MustExec(`ADD ANNOTATION TO Gene.Curation
		VALUE '<Annotation>verified against RegulonDB</Annotation>'
		ON (SELECT GSequence FROM Gene WHERE GID = 'JW0080')`)

	res := db.MustExec(`SELECT GID, GSequence FROM Gene ANNOTATION(Curation) ORDER BY GID DESC`)
	for _, row := range res.Rows {
		fmt.Print(row.Values[0].String())
		for _, ann := range row.AnnotationsFlat() {
			fmt.Print(" <- ", ann.PlainBody())
		}
		fmt.Println()
	}

	// AWHERE keeps only rows with a matching annotation.
	curated := db.MustExec(`SELECT GID FROM Gene ANNOTATION(Curation) AWHERE ANN.VALUE LIKE '%verified%'`)
	fmt.Println("curated rows:", len(curated.Rows))

	// Output:
	// JW0080 <- verified against RegulonDB
	// JW0055
	// curated rows: 1
}
