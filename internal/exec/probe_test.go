package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bdbms/internal/sqlparse"
)

// loadRangeFixture creates T (ID INT PK, Score INT indexed, V TEXT) with IDs
// 1..n; every seventh Score is NULL.
func loadRangeFixture(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, Score INT, V TEXT)`)
	mustExec(t, s, `CREATE INDEX ON T (Score)`)
	for i := 1; i <= n; i++ {
		score := fmt.Sprint(i % 10)
		if i%7 == 0 {
			score = "NULL"
		}
		mustExec(t, s, fmt.Sprintf(`INSERT INTO T VALUES (%d, %s, 'v%d')`, i, score, i))
	}
}

// outcome renders a result or its error for comparison across executors.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error"
	}
	return canonResult(res)
}

// TestBindTimeBounds runs index probes whose bounds arrive as arguments
// through the edge cases of binding, and holds each to the NoOptimize
// reference run with the same arguments and to its literal spelling: same
// rows, and an error exactly where they have one.
func TestBindTimeBounds(t *testing.T) {
	s := newSession(t)
	loadRangeFixture(t, s, 40)
	mustExec(t, s, `CREATE TABLE Empty (ID INT NOT NULL PRIMARY KEY)`)
	ref := sameEngineSession(s, s.User)
	ref.NoOptimize = true

	cases := []struct {
		sql     string // with `?`
		literal string // the same statement spelled with literals
		args    []any
		shape   string // prefix of the prepared plan
	}{
		// NULL argument: no key to probe; the comparison yields no row.
		{`SELECT ID FROM T WHERE ID >= ?`, `SELECT ID FROM T WHERE ID >= NULL`, []any{nil}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM T WHERE ID = ?`, `SELECT ID FROM T WHERE ID = NULL`, []any{nil}, "IndexScan(T.ID = ?)"},
		// TEXT argument on an INT column: the type-mismatch error of the
		// literal form, raised by the first row compared — so not on a table
		// without rows.
		{`SELECT ID FROM T WHERE ID >= ?`, `SELECT ID FROM T WHERE ID >= 'x'`, []any{"x"}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM Empty WHERE ID >= ?`, `SELECT ID FROM Empty WHERE ID >= 'x'`, []any{"x"}, "IndexScan(Empty.ID range ?)"},
		{`SELECT ID FROM T WHERE ID > 2 + ?`, `SELECT ID FROM T WHERE ID > 2 + 'x'`, []any{"x"}, "IndexScan(T.ID range ?)"},
		// FLOAT argument on an INT column: inexact bounds widen.
		{`SELECT ID FROM T WHERE ID < ?`, `SELECT ID FROM T WHERE ID < 3.5`, []any{3.5}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM T WHERE ID <= ?`, `SELECT ID FROM T WHERE ID <= 3.5`, []any{3.5}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM T WHERE ID > ?`, `SELECT ID FROM T WHERE ID > 3.5`, []any{3.5}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM T WHERE ID >= ?`, `SELECT ID FROM T WHERE ID >= 3.5`, []any{3.5}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM T WHERE ID = ?`, `SELECT ID FROM T WHERE ID = 3.5`, []any{3.5}, "IndexScan(T.ID = ?)"},
		{`SELECT ID FROM T WHERE ID = ?`, `SELECT ID FROM T WHERE ID = 3.0`, []any{3.0}, "IndexScan(T.ID = ?)"},
		{`SELECT ID FROM T WHERE ID > ? AND ID < ?`, `SELECT ID FROM T WHERE ID > 3.0 AND ID < 6.0`, []any{3.0, 6.0}, "IndexScan(T.ID range ?)"},
		// lo > hi: empty.
		{`SELECT ID FROM T WHERE ID >= ? AND ID <= ?`, `SELECT ID FROM T WHERE ID >= 10 AND ID <= 5`, []any{10, 5}, "IndexScan(T.ID range ?)"},
		// lo == hi: one key.
		{`SELECT ID FROM T WHERE ID >= ? AND ID <= ?`, `SELECT ID FROM T WHERE ID >= 7 AND ID <= 7`, []any{7, 7}, "IndexScan(T.ID range ?)"},
		// Several bounds on one side, folded and deferred: the tightest wins,
		// a strict bound over an inclusive one on the same key.
		{`SELECT ID FROM T WHERE ID >= 5 AND ID > ? AND ID <= ? AND ID < 30`, `SELECT ID FROM T WHERE ID >= 5 AND ID > 5 AND ID <= 30 AND ID < 30`, []any{5, 30}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM T WHERE ? < ID AND ID <= 12`, `SELECT ID FROM T WHERE 8 < ID AND ID <= 12`, []any{8}, "IndexScan(T.ID range ?)"},
		{`SELECT ID FROM T WHERE ID > 2 + ?`, `SELECT ID FROM T WHERE ID > 2 + 35`, []any{35}, "IndexScan(T.ID range ?)"},
		// A secondary index holds no NULL keys; neither form returns them.
		{`SELECT ID FROM T WHERE Score >= ? AND Score < ?`, `SELECT ID FROM T WHERE Score >= 2 AND Score < 5`, []any{2, 5}, "IndexScan(T.Score range ?)"},
		{`SELECT ID FROM T WHERE Score <= ? AND V <> 'v3'`, `SELECT ID FROM T WHERE Score <= 1 AND V <> 'v3'`, []any{1}, "IndexScan(T.Score range ?)"},
	}
	for _, tc := range cases {
		st, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("prepare %q: %v", tc.sql, err)
		}
		got := outcome(st.Exec(tc.args...))
		if plan := st.plan.phys.String(); !strings.HasPrefix(plan, tc.shape) {
			t.Errorf("%s %v: plan %q, want %s", tc.sql, tc.args, plan, tc.shape)
		}
		refSt, err := ref.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if want := outcome(refSt.Exec(tc.args...)); got != want {
			t.Errorf("%s %v:\n got: %s\nreference: %s", tc.sql, tc.args, got, want)
		}
		if lit := outcome(s.Exec(tc.literal)); got != lit {
			t.Errorf("%s %v:\n got: %s\n%s: %s", tc.sql, tc.args, got, tc.literal, lit)
		}
	}

	// The same bounds as the read phase of a mutation, in a transaction that
	// is rolled back.
	upd, err := s.Prepare(`UPDATE T SET V = 'x' WHERE ID > ? AND ID <= ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []any
		want int
	}{
		{[]any{10, 20}, 10}, {[]any{3.5, 6.5}, 3}, {[]any{20, 10}, 0}, {[]any{nil, 10}, 0},
	} {
		tx, err := s.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := upd.Exec(tc.args...)
		if err != nil {
			t.Fatalf("%s %v: %v", upd.Text(), tc.args, err)
		}
		if res.Affected != tc.want {
			t.Errorf("%s %v affected %d row(s), want %d", upd.Text(), tc.args, res.Affected, tc.want)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	if got := upd.plan.phys.String(); got != "IndexScan(T.ID range ?) -> Filter" {
		t.Errorf("prepared UPDATE plan = %q", got)
	}
}

// TestPreparedRangeConcurrentArgs executes one prepared range from two
// goroutines with different arguments: the bounds of an execution live in
// that execution, never in the shared plan. Meaningful under -race.
func TestPreparedRangeConcurrentArgs(t *testing.T) {
	s := newSession(t)
	loadRangeFixture(t, s, 200)
	st, err := s.Prepare(`SELECT ID FROM T WHERE ID >= ? AND ID <= ?`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lo := 1 + (i*7+g*50)%150
				hi := lo + g*10 + i%5
				res, err := st.Exec(lo, hi)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != hi-lo+1 || res.Rows[0].Values[0].Int() != int64(lo) {
					t.Errorf("[%d, %d] returned %d rows starting at %v", lo, hi, len(res.Rows), res.Rows[0].Values[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPreparedRangeSnapshotAugment: the index shows current rows, so a probe
// bound from arguments under an older snapshot is widened with the rows the
// snapshot sees differently — a row that an UPDATE has since moved out of the
// range is still returned, with the value the snapshot saw.
func TestPreparedRangeSnapshotAugment(t *testing.T) {
	s := newSession(t)
	loadRangeFixture(t, s, 20)
	st, err := s.Prepare(`SELECT ID, Score FROM T WHERE Score >= ? AND Score <= ?`)
	if err != nil {
		t.Fatal(err)
	}
	want := outcome(st.Exec(2, 3))

	snap := s.Eng.NewSnapshot()
	defer snap.Close()
	mustExec(t, s, `UPDATE T SET Score = 9 WHERE ID = 12`) // Score 2 -> 9
	mustExec(t, s, `DELETE FROM T WHERE ID = 3`)           // Score 3
	params, err := bindArgs(2, []any{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.buildStream(context.Background(), st.stmt.(*sqlparse.SelectStmt), params, st, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcome(rows.materialize()); got != want {
		t.Errorf("under the older snapshot:\n got: %s\nwant: %s", got, want)
	}
	if got := st.plan.phys.String(); got != "IndexScan(T.Score range ?) -> Filter" {
		t.Errorf("plan = %q", got)
	}
	if now := outcome(st.Exec(2, 3)); now == want {
		t.Error("the writes did not change the range's current rows; the test proves nothing")
	}
}

// TestPreparedPlanReplansWhenStatsMove: a statement prepared and first run
// before its tables were loaded must not keep the join plan costed for empty
// tables — it replans once the statistics it read have moved, and then keeps
// the new plan.
func TestPreparedPlanReplansWhenStatsMove(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE A (ID INT NOT NULL PRIMARY KEY, K INT)`)
	mustExec(t, s, `CREATE TABLE B (ID INT NOT NULL PRIMARY KEY, K INT)`)
	const sql = `SELECT A.ID FROM A, B WHERE A.K = B.K AND B.ID < 3`
	st, err := s.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	empty := st.plan

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO A VALUES (%d, %d)`, i, i%50))
	}
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO B VALUES (%d, %d)`, i, i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3*60 {
		t.Errorf("join returned %d rows, want 180", len(res.Rows))
	}
	fresh, err := s.planFor(st.stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.plan.phys.String(), fresh.phys.String(); got != want {
		t.Errorf("cached plan after the load = %q, a fresh plan = %q", got, want)
	}
	if st.plan == empty || st.plan.phys.String() == empty.phys.String() {
		t.Errorf("the load did not change the plan (%q); the test proves nothing", empty.phys.String())
	}
	loaded := st.plan
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	if st.plan != loaded {
		t.Error("replanned although the statistics have not moved")
	}

	// A plan cost chose nothing in is not re-examined.
	point, err := s.Prepare(`SELECT K FROM A WHERE ID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := point.Exec(1); err != nil {
		t.Fatal(err)
	}
	first := point.plan
	mustExec(t, s, `DELETE FROM A WHERE ID >= 1000`)
	if _, err := point.Exec(1); err != nil {
		t.Fatal(err)
	}
	if point.plan != first {
		t.Error("a single-source point read replanned on statistics it never used")
	}
}

// TestPreparedSetOpOperandPlanCached: the right operand of a prepared set
// operation is planned once with its parent and invalidated with it, not
// planned again by every execution.
func TestPreparedSetOpOperandPlanCached(t *testing.T) {
	s := newSession(t)
	loadRangeFixture(t, s, 40)
	mustExec(t, s, `CREATE TABLE U (ID INT NOT NULL PRIMARY KEY, W INT)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO U VALUES (%d, %d)`, i, i%8))
	}
	st, err := s.Prepare(`SELECT ID FROM T WHERE ID < ? UNION SELECT ID FROM U WHERE W > ?`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(lo, w int) {
		t.Helper()
		got := outcome(st.Exec(lo, w))
		want := outcome(s.Exec(fmt.Sprintf(`SELECT ID FROM T WHERE ID < %d UNION SELECT ID FROM U WHERE W > %d`, lo, w)))
		if got != want {
			t.Errorf("(%d, %d):\n got: %s\nwant: %s", lo, w, got, want)
		}
	}
	run(5, 6)
	if st.plan.right == nil {
		t.Fatal("the operand's plan is not cached with its parent's")
	}
	right := st.plan.right
	if got := right.phys.String(); got != "SeqScan(U) -> Filter" {
		t.Errorf("operand plan = %q", got)
	}
	run(9, 5)
	if st.plan.right != right {
		t.Error("second execution planned the right operand again")
	}
	mustExec(t, s, `CREATE INDEX ON U (W)`)
	run(7, 4)
	if st.plan.right == right {
		t.Error("DDL did not invalidate the operand's plan")
	}
	if got := st.plan.right.phys.String(); got != "IndexScan(U.W range ?) -> Filter" {
		t.Errorf("operand plan after CREATE INDEX = %q", got)
	}
}
