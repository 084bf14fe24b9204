package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
)

func loadGenes(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, Score INT)`)
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Gene VALUES ('G%04d', 'name%d', %d)`, i, i, i%97))
	}
}

// TestQueryStreamsLazily proves the cursor pulls rows from the scan instead
// of materializing: after fetching the first row of a full-table SELECT, the
// underlying scan iterator must not have advanced past the first few RowIDs.
func TestQueryStreamsLazily(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 500)
	rows, err := s.Query(context.Background(), `SELECT GID, GName FROM Gene`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	proj, ok := rows.ait.(*projectIter)
	if !ok {
		t.Fatalf("pipeline root is %T, want *projectIter", rows.ait)
	}
	dec, ok := proj.in.(*decorateIter)
	if !ok {
		t.Fatalf("pipeline stage is %T, want *decorateIter", proj.in)
	}
	// The default pipeline source for a plain full scan is the vectorized
	// batch adapter, which is lazy at chunk granularity: the first row must
	// not have decoded more than the first chunk. A NoVectorize session keeps
	// the row-at-a-time scan, lazy per row.
	switch src := dec.in.(type) {
	case *batchRowsIter:
		if src.scan.ci > 1 {
			t.Errorf("batch scan decoded %d chunks for the first result; cursor is not lazy", src.scan.ci)
		}
	case *scanIter:
		if src.pos > 2 {
			t.Errorf("scan advanced %d rows for the first result; cursor is not lazy", src.pos)
		}
	default:
		t.Fatalf("pipeline source is %T, want *batchRowsIter or *scanIter", dec.in)
	}
	var gid, name string
	if err := rows.Scan(&gid, &name); err != nil {
		t.Fatal(err)
	}
	if gid != "G0000" || name != "name0" {
		t.Errorf("first row = %q, %q", gid, name)
	}
}

// TestQueryLimitStopsEarly verifies LIMIT terminates the stream without
// touching the rest of the table.
func TestQueryLimitStopsEarly(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 200)
	rows, err := s.Query(context.Background(), `SELECT GID FROM Gene LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("LIMIT 3 returned %d rows", n)
	}
}

// TestQueryContextCancel verifies a canceled context aborts iteration with
// context.Canceled, both before the first row and mid-stream.
func TestQueryContextCancel(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 300)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := s.Query(ctx, `SELECT GID FROM Gene`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Error("Next succeeded on a canceled context")
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", rows.Err())
	}
	rows.Close()

	ctx, cancel = context.WithCancel(context.Background())
	rows, err = s.Query(ctx, `SELECT GID FROM Gene`)
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
		t.Errorf("mid-stream Err() = %v, want context.Canceled", rows.Err())
	}
}

// TestQueryContextCancelJoin verifies the check fires inside join iterators
// too, and on the naive executor's scan loop.
func TestQueryContextCancelJoin(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 100)
	mustExec(t, s, `CREATE TABLE Protein (PID TEXT NOT NULL PRIMARY KEY, GID TEXT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Protein VALUES ('P%04d', 'G%04d')`, i, i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The hash join drains its build side when the pipeline is assembled, so
	// a pre-canceled context may surface at Query time or at first Next.
	rows, err := s.Query(ctx, `SELECT Gene.GID, PID FROM Gene, Protein WHERE Gene.GID = Protein.GID`)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("join query error = %v, want context.Canceled", err)
		}
	} else {
		if rows.Next() || !errors.Is(rows.Err(), context.Canceled) {
			t.Errorf("join under canceled context: err=%v", rows.Err())
		}
		rows.Close()
	}

	naive := sameEngineSession(s, s.User)
	naive.NoOptimize = true
	nrows, err := naive.Query(ctx, `SELECT GID FROM Gene`)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("naive query error = %v", err)
		}
		return
	}
	if nrows.Next() || !errors.Is(nrows.Err(), context.Canceled) {
		t.Errorf("naive under canceled context: err=%v", nrows.Err())
	}
	nrows.Close()
}

// TestDMLContextCancel verifies a canceled context aborts UPDATE/DELETE
// before any mutation happens (the row-matching phase checks it).
func TestDMLContextCancel(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sql := range []string{
		`UPDATE Gene SET Score = 0 WHERE Score >= 0`,
		`DELETE FROM Gene WHERE Score >= 0`,
		`INSERT INTO Gene VALUES ('X', 'x', 1)`,
	} {
		rows, err := s.queryStmt(ctx, mustParse(t, sql), nil, nil)
		if err == nil {
			err = rows.Err()
			rows.Close()
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under canceled ctx: %v", sql, err)
		}
	}
	res := mustExec(t, s, `SELECT COUNT(*) FROM Gene`)
	if res.Rows[0].Values[0].Int() != 50 {
		t.Errorf("canceled DML mutated the table: %v rows", res.Rows[0].Values[0])
	}
}

func mustParse(t *testing.T, sql string) sqlparse.Statement {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestPlaceholderBindingAllTypes runs a prepared INSERT and point SELECTs
// binding every value type: TEXT, INT, FLOAT, BOOL, SEQUENCE and NULL.
func TestPlaceholderBindingAllTypes(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Sample (
		ID INT NOT NULL PRIMARY KEY, Name TEXT, Ratio FLOAT,
		Active BOOL, Seq SEQUENCE, Note TEXT)`)

	ins, err := s.Prepare(`INSERT INTO Sample VALUES (?, ?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 6 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	if _, err := ins.Exec(int64(1), "alpha", 0.5, true, value.NewSequence("ATGC"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(2, "beta", float32(1.5), false, "CCGG", "noted"); err != nil {
		t.Fatal(err)
	}

	rows, err := s.Query(context.Background(),
		`SELECT Name, Ratio, Active, Seq, Note FROM Sample WHERE ID = ?`, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	var name, seq string
	var ratio float64
	var active bool
	var note value.Value
	if err := rows.Scan(&name, &ratio, &active, &seq, &note); err != nil {
		t.Fatal(err)
	}
	if name != "alpha" || ratio != 0.5 || !active || seq != "ATGC" || !note.IsNull() {
		t.Errorf("row = %q %v %v %q %v", name, ratio, active, seq, note)
	}

	// Bind every comparable type in WHERE.
	for _, tc := range []struct {
		sql  string
		arg  any
		want int
	}{
		{`SELECT ID FROM Sample WHERE Name = ?`, "beta", 1},
		{`SELECT ID FROM Sample WHERE Ratio > ?`, 1.0, 1},
		{`SELECT ID FROM Sample WHERE Active = ?`, true, 1},
		{`SELECT ID FROM Sample WHERE Seq = ?`, value.NewSequence("CCGG"), 1},
		{`SELECT ID FROM Sample WHERE ID = ?`, 2, 1},
		{`SELECT ID FROM Sample WHERE Name = ?`, "missing", 0},
	} {
		res, err := s.QueryAll(tc.sql, tc.arg)
		if err != nil {
			t.Errorf("%s: %v", tc.sql, err)
			continue
		}
		if len(res) != tc.want {
			t.Errorf("%s with %v: %d rows, want %d", tc.sql, tc.arg, len(res), tc.want)
		}
	}
}

// QueryAll is a test convenience: run a bound query and drain it.
func (s *Session) QueryAll(sql string, args ...any) ([]ARow, error) {
	rows, err := s.Query(context.Background(), sql, args...)
	if err != nil {
		return nil, err
	}
	res, err := rows.materialize()
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// TestPlaceholderArgErrors covers count mismatches and unsupported types.
func TestPlaceholderArgErrors(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 3)

	if _, err := s.Query(context.Background(), `SELECT GID FROM Gene WHERE GID = ?`); !errors.Is(err, ErrBadArgs) {
		t.Errorf("missing arg: %v", err)
	}
	if _, err := s.Query(context.Background(), `SELECT GID FROM Gene WHERE GID = ?`, "a", "b"); !errors.Is(err, ErrBadArgs) {
		t.Errorf("extra arg: %v", err)
	}
	if _, err := s.Query(context.Background(), `SELECT GID FROM Gene`, "stray"); !errors.Is(err, ErrBadArgs) {
		t.Errorf("arg without placeholder: %v", err)
	}
	if _, err := s.Query(context.Background(), `SELECT GID FROM Gene WHERE GID = ?`, struct{}{}); !errors.Is(err, ErrBadArgs) {
		t.Errorf("unsupported type: %v", err)
	}
	// Exec on a statement with placeholders has no way to bind them.
	if _, err := s.Exec(`SELECT GID FROM Gene WHERE GID = ?`); !errors.Is(err, ErrBadArgs) {
		t.Errorf("Exec with placeholder: %v", err)
	}
}

// TestPreparedPlanCache verifies a prepared streamable SELECT plans once,
// reuses the cached plan across executions, and replans after DDL moves the
// schema version.
func TestPreparedPlanCache(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 50)
	stmt, err := s.Prepare(`SELECT GID, GName FROM Gene WHERE GID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(arg string, want int) {
		t.Helper()
		rows, err := stmt.Query(context.Background(), arg)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
		if n != want {
			t.Fatalf("%q returned %d rows, want %d", arg, n, want)
		}
	}
	run("G0007", 1)
	planned := stmt.plan
	if planned == nil {
		t.Fatal("no plan cached after first execution")
	}
	if got := planned.phys.String(); !strings.Contains(got, "IndexScan(Gene.GID = ?)") {
		t.Errorf("prepared plan = %q, want deferred index probe", got)
	}
	run("G0011", 1)
	run("missing", 0)
	if stmt.plan != planned {
		t.Error("plan was rebuilt despite unchanged schema")
	}
	// DDL bumps the schema version: the next execution must replan.
	mustExec(t, s, `CREATE INDEX ON Gene (Score)`)
	run("G0001", 1)
	if stmt.plan == planned {
		t.Error("plan not invalidated by CREATE INDEX")
	}
}

// TestPreparedDeferredProbeExecution checks a deferred probe returns exactly
// the rows a literal query would, for both hit and miss, and that a prepared
// DML statement re-binds correctly.
func TestPreparedDeferredProbeExecution(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 100)
	stmt, err := s.Prepare(`SELECT Score FROM Gene WHERE GID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, gid := range []string{"G0000", "G0042", "G0099"} {
		res, err := stmt.Exec(gid)
		if err != nil {
			t.Fatal(err)
		}
		lit := mustExec(t, s, fmt.Sprintf(`SELECT Score FROM Gene WHERE GID = '%s'`, gid))
		if len(res.Rows) != 1 || len(lit.Rows) != 1 ||
			!res.Rows[0].Values[0].Equal(lit.Rows[0].Values[0]) {
			t.Errorf("prepared(%q) = %v, literal = %v", gid, res.Rows, lit.Rows)
		}
	}

	upd, err := s.Prepare(`UPDATE Gene SET Score = ? WHERE GID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := upd.Exec(1000, "G0005"); err != nil || res.Affected != 1 {
		t.Fatalf("prepared update: %v, affected %d", err, res.Affected)
	}
	check := mustExec(t, s, `SELECT Score FROM Gene WHERE GID = 'G0005'`)
	if check.Rows[0].Values[0].Int() != 1000 {
		t.Errorf("update not applied: %v", check.Rows[0].Values[0])
	}
}

// TestQueryAnnotationsStream verifies annotations and the AWHERE / FILTER
// per-row operators work on the streaming path.
func TestQueryAnnotationsStream(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Ann ON Gene`)
	mustExec(t, s, `INSERT INTO Gene VALUES ('g1', 'AAA'), ('g2', 'CCC'), ('g3', 'TTT')`)
	mustExec(t, s, `ADD ANNOTATION TO Gene.Ann VALUE '<Annotation>curated</Annotation>' ON (SELECT * FROM Gene WHERE GID = 'g2')`)
	mustExec(t, s, `ADD ANNOTATION TO Gene.Ann VALUE '<Annotation>raw import</Annotation>' ON (SELECT GSequence FROM Gene)`)

	rows, err := s.Query(context.Background(),
		`SELECT GID FROM Gene ANNOTATION(Ann) AWHERE ANN.VALUE LIKE ?`, "%curated%")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		got = append(got, rows.Row().Values[0].Text())
		if len(rows.Annotations()) != 1 {
			t.Errorf("annotation columns = %d", len(rows.Annotations()))
		}
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if len(got) != 1 || got[0] != "g2" {
		t.Errorf("AWHERE stream = %v", got)
	}

	// FILTER keeps rows but drops non-matching annotations.
	res, err := s.QueryAll(`SELECT GID FROM Gene ANNOTATION(Ann) FILTER ANN.VALUE LIKE '%curated%'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("FILTER dropped rows: %d", len(res))
	}
	for _, r := range res {
		for _, a := range r.AnnotationsFlat() {
			if !strings.Contains(a.PlainBody(), "curated") {
				t.Errorf("FILTER kept %q", a.PlainBody())
			}
		}
	}
}

// TestCursorDrainMatchesExec cross-checks the cursor materialization against
// Exec on shapes that fall back to eager execution (ORDER BY, GROUP BY,
// DISTINCT, set ops) and shapes that stream.
func TestCursorDrainMatchesExec(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 60)
	for _, sql := range []string{
		`SELECT GID, Score FROM Gene WHERE Score > 40`,
		`SELECT GID FROM Gene ORDER BY GID DESC LIMIT 5`,
		`SELECT Score, COUNT(*) FROM Gene GROUP BY Score HAVING COUNT(*) > 1`,
		`SELECT DISTINCT Score FROM Gene`,
		`SELECT GID FROM Gene WHERE Score < 10 UNION SELECT GID FROM Gene WHERE Score > 90`,
	} {
		want := mustExec(t, s, sql)
		got, err := s.QueryAll(sql)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if len(got) != len(want.Rows) {
			t.Errorf("%s: cursor %d rows, exec %d", sql, len(got), len(want.Rows))
			continue
		}
		for i := range got {
			for c := range got[i].Values {
				if !got[i].Values[c].Equal(want.Rows[i].Values[c]) {
					t.Errorf("%s row %d col %d: %v != %v", sql, i, c, got[i].Values[c], want.Rows[i].Values[c])
				}
			}
		}
	}
}

// TestRowsDMLResult verifies the cursor surface of non-SELECT statements.
func TestRowsDMLResult(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE T (A INT)`)
	rows, err := s.Query(context.Background(), `INSERT INTO T VALUES (?), (?)`, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Error("DML cursor has rows")
	}
	if rows.Affected() != 2 {
		t.Errorf("Affected = %d", rows.Affected())
	}
	if rows.Message() == "" {
		t.Error("no message")
	}
	rows.Close()
}

// TestConcurrentSessionsExec exercises reader/writer concurrency at the
// exec layer: parallel streaming readers against a concurrent writer must
// not race, and every reader must observe a consistent snapshot per cursor.
func TestConcurrentSessionsExec(t *testing.T) {
	s := newSession(t)
	loadGenes(t, s, 200)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sameEngineSession(s, s.User)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := r.Query(context.Background(), `SELECT GID, Score FROM Gene WHERE Score >= ?`, 0)
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				rows.Close()
				if rows.Err() != nil {
					t.Error(rows.Err())
					return
				}
				if n < 200 {
					t.Errorf("reader saw %d rows", n)
					return
				}
			}
		}()
	}
	writer := sameEngineSession(s, s.User)
	for i := 0; i < 50; i++ {
		mustExec(t, writer, fmt.Sprintf(`INSERT INTO Gene VALUES ('W%04d', 'w', %d)`, i, i))
		mustExec(t, writer, fmt.Sprintf(`UPDATE Gene SET Score = %d WHERE GID = 'W%04d'`, i+1, i))
	}
	close(stop)
	wg.Wait()
}

// TestPlaceholderPlanShapes checks explain output for probes whose bounds
// come from the arguments: the access path is the literal spelling's, marked
// with " ?".
func TestPlaceholderPlanShapes(t *testing.T) {
	s := newSession(t)
	s.NoReorder = true // assert syntactic shapes; cost-based shapes have goldens
	loadGenes(t, s, 10)
	mustExec(t, s, `CREATE TABLE Protein (PID TEXT NOT NULL PRIMARY KEY, GID TEXT)`)
	mustExec(t, s, `CREATE TABLE G (ID INT NOT NULL PRIMARY KEY, Score INT)`)
	mustExec(t, s, `CREATE INDEX ON G (Score)`)
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO G VALUES (%d, %d)`, i, i%7))
	}
	for _, tc := range []struct{ sql, want string }{
		{`SELECT * FROM Gene WHERE GID = ?`, "IndexScan(Gene.GID = ?)"},
		{`SELECT * FROM Gene WHERE Score = ?`, "SeqScan(Gene)"}, // unindexed: pushed filter only
		{`SELECT * FROM Gene, Protein WHERE Gene.GID = Protein.GID AND Protein.PID = ?`,
			"HashJoin(Protein via IndexScan(Protein.PID = ?))"},
		{`SELECT * FROM G WHERE ID >= ? AND ID <= ?`, "IndexScan(G.ID range ?) filter"},
		{`SELECT * FROM G WHERE ID < ?`, "IndexScan(G.ID range ?) filter"},
		{`SELECT * FROM G WHERE ? < ID`, "IndexScan(G.ID range ?) filter"},
		{`SELECT * FROM G WHERE ID > 2+?`, "IndexScan(G.ID range ?) filter"},
		{`SELECT * FROM G WHERE ID >= 10 AND ID <= ?`, "IndexScan(G.ID range ?) filter"},
		{`SELECT * FROM G WHERE ID >= 10 AND ID <= 20`, "IndexScan(G.ID range) filter"},
		// The first equality on an indexed column wins, however it is spelled;
		// a range never outranks an equality.
		{`SELECT * FROM G WHERE ID = ? AND Score = 5`, "IndexScan(G.ID = ?) filter"},
		{`SELECT * FROM G WHERE ID = 7 AND Score = ?`, "IndexScan(G.ID =) filter"},
		{`SELECT * FROM G WHERE Score > 5 AND ID = ?`, "IndexScan(G.ID = ?) filter"},
		{`SELECT * FROM G WHERE Score > ? AND ID < 3`, "IndexScan(G.Score range ?) filter"},
		// A range over `?` is a probe, so there is no index order to elide the
		// sort onto: the literal spelling's Top-N.
		{`SELECT * FROM G WHERE ID >= ? ORDER BY ID LIMIT 5`, "IndexScan(G.ID range ?) filter rows~10\nProject(ID, Score)\nTopN(5: ID)"},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		desc, err := s.explainSelect(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(desc, tc.want) {
			t.Errorf("%s => %q, want %q", tc.sql, desc, tc.want)
		}
	}
}
