package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bdbms/internal/sqlparse"
)

// buildJoinFixture creates a three-table schema with primary keys, a
// secondary index, annotations on two tables and dependency-outdated marks,
// so equivalence runs cover every decoration path.
func buildJoinFixture(t *testing.T, s *Session, genes, proteins int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, Score INT)`)
	mustExec(t, s, `CREATE TABLE Protein (PID TEXT NOT NULL PRIMARY KEY, GID TEXT, PLen INT)`)
	mustExec(t, s, `CREATE TABLE Lab (LID INT NOT NULL PRIMARY KEY, GID TEXT)`)
	mustExec(t, s, `CREATE INDEX ON Protein (GID)`)
	mustExec(t, s, `CREATE INDEX ON Gene (Score)`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Curation ON Gene`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Source ON Protein`)

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < genes; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Gene VALUES ('G%03d', 'name%d', %d)`,
			i, i%7, rng.Intn(50)))
	}
	for i := 0; i < proteins; i++ {
		gid := fmt.Sprintf("G%03d", rng.Intn(genes+3)) // some dangling GIDs
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Protein VALUES ('P%03d', '%s', %d)`,
			i, gid, rng.Intn(200)))
	}
	for i := 0; i < genes/2; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Lab VALUES (%d, 'G%03d')`, i, rng.Intn(genes)))
	}
	mustExec(t, s, `ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>curated set</Annotation>'
		ON (SELECT GName FROM Gene WHERE Score >= 25)`)
	mustExec(t, s, `ADD ANNOTATION TO Protein.Source VALUE '<Annotation>from pipeline X</Annotation>'
		ON (SELECT * FROM Protein WHERE PLen < 100)`)
	// Outdated marks through the dependency manager's bitmap.
	s.Dep.Bitmap("Gene").Set(3, 2)
	s.Dep.Bitmap("Gene").Set(7, 1)
	s.Dep.Bitmap("Protein").Set(2, 0)
}

// fingerprint renders a result deterministically: column names, then one
// line per row with typed values and, per cell, the sorted set of attached
// annotations.
func fingerprint(res *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ","))
	b.WriteByte('\n')
	for _, r := range res.Rows {
		for i, v := range r.Values {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.Type().String())
			b.WriteByte(':')
			b.WriteString(v.String())
		}
		for c, cell := range r.Anns {
			if len(cell) == 0 {
				continue
			}
			var anns []string
			for _, a := range cell {
				anns = append(anns, fmt.Sprintf("%s/%s/%s", a.AnnTable, a.Author, a.PlainBody()))
			}
			sort.Strings(anns)
			fmt.Fprintf(&b, " [c%d: %s]", c, strings.Join(anns, ";"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// equivalenceQueries is the property-test corpus: every supported WHERE shape
// the planner can rewrite, plus controls it must leave alone.
var equivalenceQueries = []string{
	// Index point and range scans.
	`SELECT * FROM Gene WHERE GID = 'G007'`,
	`SELECT GName, Score FROM Gene WHERE Score = 25`,
	`SELECT * FROM Gene WHERE Score > 30`,
	`SELECT * FROM Gene WHERE Score >= 10 AND Score < 20`,
	`SELECT * FROM Gene WHERE 25 <= Score AND Score <= 40 AND GName LIKE 'name%'`,
	`SELECT * FROM Gene WHERE Score > 10.5`,
	`SELECT * FROM Gene WHERE Score = 12.0`,
	`SELECT * FROM Gene WHERE Score = 12.5`,
	`SELECT * FROM Gene WHERE GID = 'ZZZ'`,
	// Non-indexed pushdown.
	`SELECT * FROM Gene WHERE GName = 'name3'`,
	`SELECT * FROM Gene WHERE GName = 'name3' OR Score < 5`,
	`SELECT * FROM Protein WHERE GID IS NOT NULL AND PLen > 150`,
	// Hash equi-joins.
	`SELECT Gene.GID, PID FROM Gene, Protein WHERE Gene.GID = Protein.GID`,
	`SELECT Gene.GID, PID, PLen FROM Gene, Protein WHERE Gene.GID = Protein.GID AND Score > 20 AND PLen < 120`,
	`SELECT g.GID, p.PID FROM Gene g, Protein p WHERE p.GID = g.GID AND g.GName = 'name1'`,
	// Three-way join: hash keys chain across the prefix.
	`SELECT g.GID, p.PID, l.LID FROM Gene g, Protein p, Lab l
	   WHERE g.GID = p.GID AND l.GID = g.GID AND g.Score >= 5`,
	// Cross join fallback and non-equi join predicates.
	`SELECT g.GID, l.LID FROM Gene g, Lab l WHERE g.Score > 40 AND l.LID < 3`,
	`SELECT g.GID, p.PID FROM Gene g, Protein p WHERE g.Score < p.PLen AND p.PLen < 30`,
	// Annotations propagated through joins, AWHERE, PROMOTE, FILTER.
	`SELECT GID, GName FROM Gene ANNOTATION(Curation) WHERE Score >= 25`,
	`SELECT g.GID, p.PID FROM Gene ANNOTATION(*) g, Protein ANNOTATION(Source) p
	   WHERE g.GID = p.GID`,
	`SELECT g.GID, p.PID FROM Gene ANNOTATION(Curation) g, Protein ANNOTATION(Source) p
	   WHERE g.GID = p.GID AWHERE ANN.AUTHOR = 'alice'`,
	`SELECT GID PROMOTE (GName, Score) FROM Gene ANNOTATION(Curation) WHERE Score >= 25`,
	`SELECT GID, GName FROM Gene ANNOTATION(Curation) WHERE Score >= 20
	   FILTER ANN.TABLE = 'Curation'`,
	// Grouping, distinct, ordering, set ops, limits.
	`SELECT GName, COUNT(*) FROM Gene WHERE Score > 10 GROUP BY GName`,
	`SELECT DISTINCT GName FROM Gene WHERE Score >= 15`,
	`SELECT GID FROM Gene WHERE Score > 30 ORDER BY GID DESC LIMIT 5`,
	`SELECT GID FROM Gene WHERE Score > 40 UNION SELECT GID FROM Gene WHERE Score < 5`,
	`SELECT g.GID FROM Gene g, Protein p WHERE g.GID = p.GID
	   INTERSECT SELECT GID FROM Gene WHERE Score >= 0`,
	// Rows carrying outdated marks must decorate identically.
	`SELECT * FROM Gene WHERE Score >= 0`,
	`SELECT g.GID, p.PID FROM Gene g, Protein p WHERE g.GID = p.GID AND p.PLen >= 0`,
}

// TestPlanEquivalence asserts the planned pipeline (index scans, pushdown,
// hash joins, lazy decoration) returns byte-identical results — rows,
// ordering and propagated annotations — to the naive cross-product executor.
func TestPlanEquivalence(t *testing.T) {
	s := newSession(t)
	buildJoinFixture(t, s, 40, 60)
	for _, q := range equivalenceQueries {
		s.NoOptimize = true
		naive, err := s.Exec(q)
		if err != nil {
			t.Fatalf("naive Exec(%q): %v", q, err)
		}
		s.NoOptimize = false
		planned, err := s.Exec(q)
		if err != nil {
			t.Fatalf("planned Exec(%q): %v", q, err)
		}
		if got, want := fingerprint(planned), fingerprint(naive); got != want {
			t.Errorf("plan mismatch for %q:\nplanned:\n%s\nnaive:\n%s", q, got, want)
		}
	}
}

// TestPlanEquivalenceRandomPointQueries fuzzes point/range lookups across the
// whole key space, including misses.
func TestPlanEquivalenceRandomPointQueries(t *testing.T) {
	s := newSession(t)
	buildJoinFixture(t, s, 30, 45)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		var q string
		switch i % 4 {
		case 0:
			q = fmt.Sprintf(`SELECT * FROM Gene WHERE GID = 'G%03d'`, rng.Intn(40))
		case 1:
			q = fmt.Sprintf(`SELECT * FROM Gene WHERE Score >= %d AND Score <= %d`, rng.Intn(30), rng.Intn(30)+15)
		case 2:
			q = fmt.Sprintf(`SELECT * FROM Protein WHERE GID = 'G%03d' AND PLen > %d`, rng.Intn(35), rng.Intn(100))
		default:
			q = fmt.Sprintf(`SELECT g.GID, p.PID FROM Gene g, Protein p
				WHERE g.GID = p.GID AND g.Score > %d`, rng.Intn(45))
		}
		s.NoOptimize = true
		naive, err := s.Exec(q)
		if err != nil {
			t.Fatalf("naive Exec(%q): %v", q, err)
		}
		s.NoOptimize = false
		planned, err := s.Exec(q)
		if err != nil {
			t.Fatalf("planned Exec(%q): %v", q, err)
		}
		if got, want := fingerprint(planned), fingerprint(naive); got != want {
			t.Errorf("plan mismatch for %q:\nplanned:\n%s\nnaive:\n%s", q, got, want)
		}
	}
}

// TestPlanShapes asserts the planner picks the intended physical operators —
// otherwise the equivalence suite could pass trivially with every query
// falling back to scans.
func TestPlanShapes(t *testing.T) {
	s := newSession(t)
	// Pin the syntactic order and the syntactic operator choice: this test
	// asserts the shapes the non-cost-based planner produces (the cost-based
	// choices have their own coverage in the EXPLAIN goldens and the
	// join-order fuzzer).
	s.NoReorder = true
	buildJoinFixture(t, s, 10, 10)
	cases := []struct {
		sql  string
		want []string
	}{
		{`SELECT * FROM Gene WHERE GID = 'G001'`, []string{"IndexScan(Gene.GID =)"}},
		{`SELECT * FROM Gene WHERE Score > 3 AND Score < 9`, []string{"IndexScan(Gene.Score range)"}},
		{`SELECT * FROM Gene WHERE GName = 'name1'`, []string{"SeqScan(Gene) filter"}},
		{`SELECT * FROM Gene, Protein WHERE Gene.GID = Protein.GID`, []string{"HashJoin(Protein)"}},
		{`SELECT * FROM Gene, Protein WHERE Gene.GID = Protein.GID AND Protein.PID = 'P003'`,
			[]string{"HashJoin(Protein via IndexScan(Protein.PID =))", "SeqScan(Gene)"}},
		{`SELECT * FROM Gene, Lab WHERE Score > 40`, []string{"NestedLoop(Lab)"}},
		{`SELECT g.GID FROM Gene g, Protein p WHERE g.Score < p.PLen`,
			[]string{"NestedLoop(Protein) filter"}},
		{`SELECT * FROM Gene WHERE COUNT(*) = 1`, []string{"SeqScan(Gene)", "Residual"}},
	}
	for _, tc := range cases {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.sql, err)
		}
		desc, err := s.explainSelect(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatalf("explain %q: %v", tc.sql, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(desc, want) {
				t.Errorf("plan for %q = %q, want it to contain %q", tc.sql, desc, want)
			}
		}
	}
}

// TestIndexScanAfterMutations ensures index-assisted plans see updates and
// deletes (the B+-tree is maintained by DML, but plan correctness after
// churn is what users observe).
func TestIndexScanAfterMutations(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO T VALUES (%d, 'v%d')`, i, i))
	}
	mustExec(t, s, `DELETE FROM T WHERE ID = 7`)
	mustExec(t, s, `UPDATE T SET ID = 107 WHERE ID = 9`)

	res := mustExec(t, s, `SELECT V FROM T WHERE ID = 7`)
	if len(res.Rows) != 0 {
		t.Errorf("deleted row still visible via index: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT V FROM T WHERE ID = 107`)
	if len(res.Rows) != 1 || res.Rows[0].Values[0].Text() != "v9" {
		t.Errorf("updated key not visible via index: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT V FROM T WHERE ID >= 18`)
	if len(res.Rows) != 3 { // 18, 19, 107
		t.Errorf("range after churn = %d rows, want 3", len(res.Rows))
	}
}

// TestMutationPlanShapes is the one-path invariant: for every WHERE shape,
// EXPLAIN UPDATE, EXPLAIN DELETE and EXPLAIN SELECT * render the same
// pipeline — access path, pushed-filter mark, estimate, residual — because
// all three are the rendering of one plan, not three re-derivations of it.
func TestMutationPlanShapes(t *testing.T) {
	s := newSession(t)
	buildJoinFixture(t, s, 10, 10)
	// pipelineOf runs an EXPLAIN (prepared, so `?` shapes bind) and returns
	// the pipeline lines: a SELECT's up to its Project line, a mutation's
	// below its verb line with the indent and the "via " lead stripped.
	pipelineOf := func(sql string, args []any) string {
		t.Helper()
		st, err := s.Prepare(sql)
		if err != nil {
			t.Fatalf("prepare %q: %v", sql, err)
		}
		res, err := st.Exec(args...)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		var lines []string
		for _, r := range res.Rows {
			line := r.Values[0].Text()
			if strings.HasPrefix(line, "Project(") {
				break
			}
			if strings.HasPrefix(line, "Update(") || strings.HasPrefix(line, "Delete(") {
				continue
			}
			lines = append(lines, strings.TrimPrefix(strings.TrimPrefix(line, "  "), "via "))
		}
		return strings.Join(lines, "\n")
	}
	for _, tc := range []struct {
		where string
		args  []any
		want  string
	}{
		{` WHERE GID = 'G001'`, nil, "IndexScan(Gene.GID =) filter rows~1"},
		{` WHERE Score > 3 AND Score < 9`, nil, "IndexScan(Gene.Score range) filter"},
		{` WHERE GID = ?`, []any{"G001"}, "IndexScan(Gene.GID = ?) filter rows~1"},
		{` WHERE Score >= ? AND Score <= ?`, []any{3, 9}, "IndexScan(Gene.Score range ?) filter"},
		{` WHERE Score < ?`, []any{9}, "IndexScan(Gene.Score range ?) filter"},
		{` WHERE ? < Score`, []any{3}, "IndexScan(Gene.Score range ?) filter"},
		{` WHERE Score > 2+?`, []any{1}, "IndexScan(Gene.Score range ?) filter"},
		{` WHERE Score > 3 AND Score < ?`, []any{9}, "IndexScan(Gene.Score range ?) filter"},
		{` WHERE GID = ? AND Score = 5`, []any{"G001"}, "IndexScan(Gene.GID = ?) filter rows~1"},
		{` WHERE GName = 'name1' AND Score >= 0`, nil, "IndexScan(Gene.Score range) filter"},
		{` WHERE GName = 'name1'`, nil, "SeqScan(Gene) filter"},
		{` WHERE Nope > 50`, nil, "SeqScan(Gene) rows~10\nResidual"},
		{``, nil, "SeqScan(Gene) rows~10"},
	} {
		sel := pipelineOf(`EXPLAIN SELECT * FROM Gene`+tc.where, tc.args)
		if !strings.HasPrefix(sel, tc.want) {
			t.Errorf("SELECT%s pipeline = %q, want prefix %q", tc.where, sel, tc.want)
		}
		if upd := pipelineOf(`EXPLAIN UPDATE Gene SET GName = 'x'`+tc.where, tc.args); upd != sel {
			t.Errorf("UPDATE%s pipeline = %q, SELECT's = %q", tc.where, upd, sel)
		}
		if del := pipelineOf(`EXPLAIN DELETE FROM Gene`+tc.where, tc.args); del != sel {
			t.Errorf("DELETE%s pipeline = %q, SELECT's = %q", tc.where, del, sel)
		}
	}
}

// TestPreparedMutationPlanCache: a prepared UPDATE/DELETE plans once and
// keeps its plan across executions, and DDL invalidates it — the same
// statement switches from a heap scan to the new index after CREATE INDEX.
func TestPreparedMutationPlanCache(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, Score INT, V TEXT)`)
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO T VALUES (%d, %d, 'v')`, i, i%10))
	}
	upd, err := s.Prepare(`UPDATE T SET V = ? WHERE Score = ?`)
	if err != nil {
		t.Fatal(err)
	}
	del, err := s.Prepare(`DELETE FROM T WHERE Score = ? AND ID >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(st *Stmt, wantShape string, wantAffected int, args ...any) *stmtPlan {
		t.Helper()
		res, err := st.Exec(args...)
		if err != nil {
			t.Fatalf("%s %v: %v", st.Text(), args, err)
		}
		if res.Affected != wantAffected {
			t.Errorf("%s %v affected %d row(s), want %d", st.Text(), args, res.Affected, wantAffected)
		}
		if st.plan == nil {
			t.Fatalf("%s: no plan cached on the prepared statement", st.Text())
		}
		if got := st.plan.phys.String(); got != wantShape {
			t.Errorf("%s plan = %q, want %q", st.Text(), got, wantShape)
		}
		return st.plan
	}
	first := run(upd, "SeqScan(T) -> Filter", 3, "a", 4)
	if again := run(upd, "SeqScan(T) -> Filter", 3, "b", 5); again != first {
		t.Error("second execution of the prepared UPDATE replanned without DDL")
	}
	run(del, "IndexScan(T.ID range ?) -> Filter", 1, 4, 20)

	mustExec(t, s, `CREATE INDEX ON T (Score)`)
	if after := run(upd, "IndexScan(T.Score = ?) -> Filter", 3, "c", 6); after == first {
		t.Error("prepared UPDATE kept its pre-DDL plan")
	}
	run(del, "IndexScan(T.Score = ?) -> Filter", 2, 5, 10)
	got := fingerprint(mustExec(t, s, `SELECT ID, V FROM T WHERE Score >= 4 AND Score <= 6 ORDER BY ID`))
	want := "ID,V\nINT:4|TEXT:a\nINT:5|TEXT:b\nINT:6|TEXT:c\nINT:14|TEXT:a\nINT:16|TEXT:c\nINT:26|TEXT:c\n"
	if got != want {
		t.Errorf("rows after prepared mutations:\n%s\nwant:\n%s", got, want)
	}
}
