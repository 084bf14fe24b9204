package exec

// An index probe that yields more than one RowID reads its rows out of a
// current columnar mirror (batchScanIter.gather) instead of fetching them
// from the heap one at a time. It must be invisible: the same rows, order and
// annotations as the row path and the reference, and it must never build or
// patch the mirror for the rows it reads.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bdbms/internal/dependency"
	"bdbms/internal/storage"
)

const gatherRows = 2600 // three chunks: 1024, 1024, 552

// loadGatherTable creates R over three mirror chunks, with a secondary index
// on the non-unique K and on the clustered text C, and a small S to join.
// Its columns cover every vector form a gather copies: INT with scattered
// NULLs (K, raw validity) and with one clustered run of NULLs (Z, run-length
// validity), FLOAT, a dictionary-coded TEXT with raw codes (T) and with
// run-length codes (C), a plain TEXT (P), a SEQUENCE and a BOOL (boxed
// values) whose only NULLs sit in the last chunk. Rows 1020-1029 carry an annotation and rows 2000-2004 outdated
// marks on Z.
func loadGatherTable(t testing.TB, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE R (ID INT NOT NULL PRIMARY KEY, K INT, F FLOAT, T TEXT, C TEXT, P TEXT, Q SEQUENCE, B BOOL, Z INT)`)
	mustExec(t, s, `CREATE INDEX ON R (K)`)
	mustExec(t, s, `CREATE INDEX ON R (C)`)
	mustExec(t, s, `CREATE TABLE S (SK INT, SV TEXT)`)
	texts := []string{"alpha", "beta", "gamma", "delta", "omega"}
	var vals []string
	flush := func(table string) {
		if len(vals) > 0 {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(vals, ", ")))
			vals = vals[:0]
		}
	}
	for i := 1; i <= gatherRows; i++ {
		k, f, txt, z := fmt.Sprint(i%50), fmt.Sprintf("%g", float64(i%9)/2), "'"+texts[i%5]+"'", fmt.Sprint(i%7)
		if i%17 == 0 {
			k = "NULL"
		}
		if i%13 == 0 {
			f = "NULL"
		}
		if i%11 == 0 {
			txt = "NULL"
		}
		if i >= 1000 && i < 1100 {
			z = "NULL"
		}
		bl := fmt.Sprint(i%3 == 0)
		if i >= 2100 && i < 2150 {
			bl = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s, 'c%d', 'p%05d', 'ACGT%d', %s, %s)",
			i, k, f, txt, i/300, (i*7919)%gatherRows, i%4, bl, z))
		if len(vals) == 200 {
			flush("R")
		}
	}
	flush("R")
	for i := 0; i < 20; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 's%d')", i*3, i))
	}
	flush("S")
	mustExec(t, s, `CREATE ANNOTATION TABLE Notes ON R`)
	mustExec(t, s, `ADD ANNOTATION TO R.Notes VALUE 'range note' ON (SELECT * FROM R WHERE ID >= 1020 AND ID < 1030)`)
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "R", Column: "K"}},
		Targets: []dependency.ColumnRef{{Table: "R", Column: "Z"}},
		Proc:    dependency.Procedure{Name: "gather rule", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `UPDATE R SET K = 49 WHERE ID >= 2000 AND ID < 2005`)
}

// warmMirror brings R's mirror up to date the way a full scan does.
func warmMirror(t testing.TB, s *Session) {
	t.Helper()
	mustExec(t, s, `SELECT COUNT(*) FROM R`)
}

// TestIndexBatchesMatchRowPath runs each index query on the reference, the
// row path and the vectorized path over a current mirror, and checks how
// many of its sources ran batched: a probe of more than one RowID gathers, a
// probe of one or none stays on the row scan.
func TestIndexBatchesMatchRowPath(t *testing.T) {
	s := newSession(t)
	s.User = "admin"
	loadGatherTable(t, s)
	tbl, err := s.Eng.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	cd := tbl.ColumnarData()
	if len(cd.Chunks) != 3 {
		t.Fatalf("R's mirror has %d chunks, want 3", len(cd.Chunks))
	}
	// The vector forms the gather must read, as the mirror chose them.
	for _, f := range []struct {
		name string
		col  int
		has  func(*storage.ColVec) bool
	}{
		{"raw validity", 1, func(v *storage.ColVec) bool { return v.Valid != nil }},
		{"run-length validity", 8, func(v *storage.ColVec) bool { return v.ValidRLE != nil }},
		{"raw dictionary codes", 3, func(v *storage.ColVec) bool { return v.Codes != nil }},
		{"run-length dictionary codes", 4, func(v *storage.ColVec) bool { return v.CodesRLE != nil }},
		{"plain strings", 5, func(v *storage.ColVec) bool { return v.Strs != nil }},
	} {
		found := false
		for _, ch := range cd.Chunks {
			found = found || f.has(&ch.Cols[f.col])
		}
		if !found {
			t.Errorf("column %d of R's mirror is never in the %s form; the test does not cover it", f.col, f.name)
		}
	}

	cases := []struct {
		name, query string
		batched     int64 // sources that ran vectorized
		empty       bool
	}{
		{"point stays on the row scan", `SELECT * FROM R WHERE ID = 7`, 0, false},
		{"range within a chunk", `SELECT * FROM R WHERE ID >= 100 AND ID <= 140`, 1, false},
		{"range across a chunk boundary", `SELECT ID, K, C, Z FROM R WHERE ID > 1000 AND ID < 1100`, 1, false},
		{"range over more than a batch", `SELECT * FROM R WHERE ID >= 5 AND ID <= 2590`, 1, false},
		{"non-unique secondary index", `SELECT ID, T, P, B FROM R WHERE K = 7`, 1, false},
		{"secondary range and a kernel", `SELECT ID, F, Q FROM R WHERE K >= 45 AND F > 1`, 1, false},
		{"text index over run-length codes", `SELECT ID, C, T FROM R WHERE C >= 'c3' AND C < 'c5'`, 1, false},
		{"empty probe", `SELECT * FROM R WHERE ID > 5000 AND ID < 6000`, 0, true},
		{"every gathered row filtered", `SELECT * FROM R WHERE ID >= 10 AND ID <= 30 AND T = 'nope'`, 1, true},
		{"nulls only in the batch's second chunk", `SELECT ID, B, Z FROM R WHERE ID >= 2000 AND ID <= 2200`, 1, false},
		{"nulls filtered row-wise", `SELECT ID, K, F, T, Z FROM R WHERE ID >= 990 AND ID <= 1110 AND Z IS NULL`, 1, false},
		{"group by over a probe", `SELECT K, COUNT(*), SUM(F), MIN(T), MAX(Z) FROM R WHERE ID >= 900 AND ID <= 2100 GROUP BY K`, 1, false},
		{"group by over marked rows", `SELECT Z, COUNT(*) FROM R WHERE ID >= 1990 AND ID <= 2010 GROUP BY Z`, 1, false},
		{"distinct over a probe", `SELECT DISTINCT C FROM R WHERE ID >= 10 AND ID <= 1900`, 1, false},
		{"top-n over a probe", `SELECT ID, F FROM R WHERE K >= 40 ORDER BY F DESC, ID LIMIT 5`, 1, false},
		{"join, probe side read through the index", `SELECT R.ID, S.SV FROM R, S WHERE R.ID >= 50 AND R.ID <= 400 AND R.K = S.SK`, 2, false},
		{"join, probe side read through a secondary index", `SELECT R.ID, S.SV FROM S, R WHERE R.K = S.SK AND R.K >= 30 AND S.SK > 20`, 2, false},
		{"annotation(*)", `SELECT * FROM R ANNOTATION(*) WHERE ID >= 1015 AND ID <= 1035`, 1, false},
		{"awhere", `SELECT ID, P FROM R ANNOTATION(Notes) WHERE ID >= 1000 AND ID <= 1200 AWHERE ANN.VALUE LIKE '%range%'`, 1, false},
		{"outdated marks", `SELECT ID, Z FROM R WHERE ID >= 1995 AND ID <= 2010`, 1, false},
	}
	run := func(t *testing.T, name, query string, batched int64, empty bool) {
		if !strings.Contains(explainText(t, s, "EXPLAIN "+query), "IndexScan(R.") {
			t.Fatalf("%s: %q does not probe R's index\n%s", name, query, explainText(t, s, "EXPLAIN "+query))
		}
		warmMirror(t, s)
		stats, scans := tbl.ColumnarStats(), batchScans.Load()
		vec := execAll(t, s, query)
		if got := batchScans.Load() - scans; got != batched {
			t.Errorf("%s: %d sources ran vectorized, want %d", name, got, batched)
		}
		if after := tbl.ColumnarStats(); after != stats {
			t.Errorf("%s: the mirror moved %+v -> %+v", name, stats, after)
		}
		s.NoVectorize = true
		rowPath := mustExec(t, s, query)
		s.NoVectorize = false
		if got, want := canon(vec, false), canon(rowPath, false); got != want {
			t.Errorf("%s: batched and row path differ in rows, order or annotation order\n got: %s\nwant: %s", name, got, want)
		}
		if (len(vec.Rows) == 0) != empty {
			t.Errorf("%s: %d rows, want empty = %v", name, len(vec.Rows), empty)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { run(t, tc.name, tc.query, tc.batched, tc.empty) })
	}

	// A chunk patched after a delete: the gather reads the new generation
	// and skips what the index still lists nowhere.
	mustExec(t, s, `DELETE FROM R WHERE ID >= 1500 AND ID < 1510`)
	patches := tbl.ColumnarStats().Patches
	warmMirror(t, s)
	if tbl.ColumnarStats().Patches != patches+1 {
		t.Fatal("the delete did not patch the mirror")
	}
	t.Run("range over a patched chunk", func(t *testing.T) {
		run(t, "patched", `SELECT ID, K, T FROM R WHERE ID >= 1490 AND ID <= 1520`, 1, false)
	})
	t.Run("secondary probe over a patched chunk", func(t *testing.T) {
		run(t, "patched secondary", `SELECT ID, C FROM R WHERE C = 'c5'`, 1, false)
	})

	// A prepared range binds its bounds per execution.
	st, err := s.Prepare(`SELECT ID, T, Z FROM R WHERE ID >= ? AND ID < ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][2]int{{1000, 1100}, {1, 3}, {2599, 2601}, {700, 700}} {
		s.NoVectorize = true
		want, err := st.Exec(b[0], b[1])
		s.NoVectorize = false
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Exec(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if canon(got, false) != canon(want, false) {
			t.Errorf("prepared range %v: batched and row path differ\n got: %s\nwant: %s", b, canon(got, false), canon(want, false))
		}
	}
}

// TestIndexProbeNeverBuildsTheMirror: a probe reads a mirror generation only
// when one is already current. Over an absent mirror, and over one a write
// made stale, an index query runs on the row scan and leaves the mirror's
// maintenance counters alone; over a current one a two-row probe gathers and
// a one-row probe does not.
func TestIndexProbeNeverBuildsTheMirror(t *testing.T) {
	s := newSession(t)
	loadGatherTable(t, s)
	tbl, err := s.Eng.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT * FROM R WHERE ID >= 100 AND ID <= 2000`,
		`SELECT ID FROM R WHERE K = 3`,
		`SELECT K, COUNT(*) FROM R WHERE ID >= 10 AND ID <= 20 GROUP BY K`,
	}
	unbatched := func(state string) {
		t.Helper()
		for _, q := range queries {
			stats, scans := tbl.ColumnarStats(), batchScans.Load()
			mustExec(t, s, q)
			if after := tbl.ColumnarStats(); after != stats {
				t.Errorf("%s: %q moved the mirror %+v -> %+v", state, q, stats, after)
			}
			if batchScans.Load() != scans {
				t.Errorf("%s: %q ran vectorized", state, q)
			}
		}
	}
	if tbl.CurrentColumnar() != nil {
		t.Fatal("R has a mirror before any full scan")
	}
	unbatched("no mirror")
	if tbl.CurrentColumnar() != nil {
		t.Fatal("an index query built R's mirror")
	}

	warmMirror(t, s)
	mustExec(t, s, `UPDATE R SET F = 1.5 WHERE ID = 1500`)
	if tbl.CurrentColumnar() != nil {
		t.Fatal("the mirror is still current after a write")
	}
	unbatched("stale mirror")

	warmMirror(t, s)
	for _, tc := range []struct {
		query   string
		batched bool
	}{
		{`SELECT * FROM R WHERE ID >= 100 AND ID <= 101`, true},
		{`SELECT * FROM R WHERE ID = 100`, false},
		{`SELECT * FROM R WHERE ID >= 100 AND ID < 101`, false},
	} {
		stats, scans := tbl.ColumnarStats(), batchScans.Load()
		mustExec(t, s, tc.query)
		if got := batchScans.Load() != scans; got != tc.batched {
			t.Errorf("%q over a current mirror: vectorized = %v, want %v", tc.query, got, tc.batched)
		}
		if after := tbl.ColumnarStats(); after != stats {
			t.Errorf("%q moved the mirror %+v -> %+v", tc.query, stats, after)
		}
	}
}

// TestIndexBatchesReadTheSnapshot opens index-range cursors over a current
// mirror, lets another session update, delete and insert rows in their
// ranges before the first Next, and checks each cursor still returns its
// snapshot's rows; a concurrent writer keeps going while they drain.
func TestIndexBatchesReadTheSnapshot(t *testing.T) {
	s := newSession(t)
	s.User = "admin"
	loadGatherTable(t, s)
	queries := []string{
		`SELECT ID, K, T, Z FROM R WHERE ID >= 900 AND ID <= 1200`,
		`SELECT ID, F FROM R WHERE K = 7`,
		`SELECT K, COUNT(*), SUM(F) FROM R WHERE ID >= 1 AND ID <= 1500 GROUP BY K`,
		`SELECT * FROM R ANNOTATION(Notes) WHERE ID >= 1010 AND ID <= 1040`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		warmMirror(t, s)
		want[i] = canon(mustExec(t, s, q), false)
	}
	warmMirror(t, s)
	scans := batchScans.Load()
	cursors := make([]*Rows, len(queries))
	for i, q := range queries {
		rows, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		cursors[i] = rows
	}
	if got := batchScans.Load() - scans; got != int64(len(queries)) {
		t.Fatalf("%d of %d cursors gather from the mirror", got, len(queries))
	}
	w := sameEngineSession(s, "admin")
	for _, stmt := range []string{
		`UPDATE R SET T = 'zeta', F = 9.5 WHERE ID >= 1000 AND ID < 1050`,
		`DELETE FROM R WHERE K = 7 AND ID > 2000`,
		`DELETE FROM R WHERE ID >= 1100 AND ID < 1110`,
		`INSERT INTO R VALUES (2700, 7, 2.5, 'new', 'c9', 'pnew', 'A', TRUE, 1)`,
	} {
		mustExec(t, w, stmt)
	}
	// More writes while the cursors drain.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := w.Exec(fmt.Sprintf(`UPDATE R SET F = %d WHERE ID = %d`, i, 950+i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i, rows := range cursors {
		res, err := rows.materialize()
		if err != nil {
			t.Fatal(err)
		}
		if got := canon(res, false); got != want[i] {
			t.Errorf("%q after concurrent writes\n got: %s\nwant (snapshot): %s", queries[i], got, want[i])
		}
	}
	wg.Wait()
	for i, q := range queries[:3] {
		if now := canon(mustExec(t, s, q), false); now == want[i] {
			t.Errorf("%q: the writes did not change its result; the test proves nothing", q)
		}
	}
}

// BenchmarkIndexProbeGather runs prepared index ranges of 1, 2, 4, 64 and
// 2000 rows over a Gene-shaped 20 000-row table with a current mirror,
// vectorized and on the row path (NoVectorize).
func BenchmarkIndexProbeGather(b *testing.B) {
	s := newSession(b)
	mustExec(b, s, `CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, Name TEXT, Family TEXT, Score FLOAT, Seq SEQUENCE)`)
	const rows = 20000
	var vals []string
	for i := 0; i < rows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'gene%05d', 'fam%d', %g, 'ACGTACGTAC%03d')", i, i, i%40, float64(i%1000)/10, i%997))
		if len(vals) == 500 {
			mustExec(b, s, `INSERT INTO Gene VALUES `+strings.Join(vals, ", "))
			vals = vals[:0]
		}
	}
	st, err := s.Prepare(`SELECT GID, Name, Seq FROM Gene WHERE GID >= ? AND GID < ?`)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := s.Eng.Table("Gene")
	if err != nil {
		b.Fatal(err)
	}
	mustExec(b, s, `SELECT COUNT(*) FROM Gene`)
	if tbl.CurrentColumnar() == nil {
		b.Fatal("no current mirror")
	}
	for _, n := range []int{1, 2, 4, 64, 2000} {
		for _, path := range []string{"batched", "rowpath"} {
			b.Run(fmt.Sprintf("rows=%d/%s", n, path), func(b *testing.B) {
				s.NoVectorize = path == "rowpath"
				defer func() { s.NoVectorize = false }()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					lo := (i * 7919) % (rows - n)
					res, err := st.Exec(lo, lo+n)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != n {
						b.Fatalf("%d rows, want %d", len(res.Rows), n)
					}
				}
			})
		}
	}
}
