package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bdbms/internal/annotation"
	"bdbms/internal/dependency"
	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
)

// loadRestoreTables creates a star whose reordered joins restore by runs: F
// (1 100 rows, two scan batches), D1 (8 rows, four per category, so every
// F row has four matches), D2 (4 rows, two per key, the two of one key
// tagged 'hot') and a five-row S for non-equi joins. Where F leads, a hot F
// row joins 2 D2 rows and 4 D1 rows: a run of 8 output rows that arrive
// D2-major and leave D1-major. Where D1 leads, one D1 row's run is 550 rows
// whose F sides come from both of F's batches. The naive reference
// materializes the full cross product (35 200 rows for the three-way
// joins), which bounds the sizes.
func loadRestoreTables(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE F (FID INT NOT NULL PRIMARY KEY, A TEXT, B TEXT, V INT, W INT)`)
	mustExec(t, s, `CREATE TABLE D1 (D1ID INT NOT NULL PRIMARY KEY, Cat TEXT, Name TEXT)`)
	mustExec(t, s, `CREATE TABLE D2 (D2ID INT NOT NULL PRIMARY KEY, Key TEXT, Tag TEXT)`)
	mustExec(t, s, `CREATE TABLE S (SID INT NOT NULL PRIMARY KEY, Lo INT)`)
	insertRows(t, s, "F", 1100, func(i int) string {
		return fmt.Sprintf("(%d, 'a%d', 'b%d', %d, %d)", i, i%2, (i/3)%2, i%97, i%13)
	})
	insertRows(t, s, "D1", 8, func(i int) string {
		return fmt.Sprintf("(%d, 'a%d', 'n%d')", i, (i/2)%2, i)
	})
	insertRows(t, s, "D2", 4, func(i int) string {
		tag := "cold"
		if i/2 == 1 {
			tag = "hot"
		}
		return fmt.Sprintf("(%d, 'b%d', '%s')", i, i/2, tag)
	})
	insertRows(t, s, "S", 5, func(i int) string { return fmt.Sprintf("(%d, %d)", i, 20*i) })
}

func insertRows(t *testing.T, s *Session, table string, n int, row func(i int) string) {
	t.Helper()
	var vals []string
	for i := 0; i < n; i++ {
		vals = append(vals, row(i))
		if len(vals) == 200 || i == n-1 {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(vals, ", ")))
			vals = vals[:0]
		}
	}
}

// plannedOrder returns the execution order the planner chooses for query.
func plannedOrder(t *testing.T, s *Session, query string) []int {
	t.Helper()
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.planFor(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return plan.phys.order
}

// keptPrefix is restoreIter's k for an execution order: the leading
// syntactic sources it keeps in place.
func keptPrefix(order []int) int {
	return newRestoreIter(nil, &physicalPlan{order: order}).k
}

// restoreCase is one reordered join: prefix says whether the execution
// order keeps the first syntactic source in place (k >= 1) or not (k = 0),
// and explain lists operators its plan must show.
type restoreCase struct {
	name, query string
	prefix      bool
	explain     []string
}

// checkRestoreCase asserts the case's plan shape and that the reordered
// plan returns what the naive reference and the order-pinned plan return:
// the same rows in the same order, with the same annotations.
func checkRestoreCase(t *testing.T, s *Session, tc restoreCase) *Result {
	t.Helper()
	order := plannedOrder(t, s, tc.query)
	k := keptPrefix(order)
	if k == len(order) {
		t.Fatalf("%s: plan %v is not reordered", tc.name, order)
	}
	if tc.prefix != (k > 0) {
		t.Fatalf("%s: plan %v keeps %d leading sources in place, want k > 0 = %v", tc.name, order, k, tc.prefix)
	}
	plan := explainText(t, s, "EXPLAIN "+tc.query)
	for _, op := range append([]string{"Restore(syntactic order)"}, tc.explain...) {
		if !strings.Contains(plan, op) {
			t.Fatalf("%s: plan lacks %q:\n%s", tc.name, op, plan)
		}
	}
	got := execAll(t, s, tc.query) // planned, row path and reference agree
	s.NoReorder = true
	pinned := mustExec(t, s, tc.query)
	s.NoReorder = false
	if g, w := canon(got, false), canon(pinned, false); g != w {
		t.Fatalf("%s: reordered != NoReorder\n got: %s\nwant: %s", tc.name, g, w)
	}
	if len(got.Rows) == 0 {
		t.Fatalf("%s returned no rows; the case compares nothing", tc.name)
	}
	return got
}

// TestReorderedJoinRestoresByRuns covers the streaming Restore: runs of one
// leading RowID (k >= 1) and the whole output as one run (k = 0), runs whose
// rows come from two multi-match build sides, runs across scan batches, a
// nested-loop step, a post-join filter on the last step, a LIMIT that stops
// mid-run, grouping (resident and spilled) over rows that carry no
// annotation cells, ANNOTATION(*) and outdated marks, and cancellation.
func TestReorderedJoinRestoresByRuns(t *testing.T) {
	s := newSession(t)
	s.User = "admin"
	loadRestoreTables(t, s)
	w := ` WHERE f.A = d1.Cat AND f.B = d2.Key AND d2.Tag = 'hot'`
	fact := ` FROM F f, D1 d1, D2 d2` + w // plans D1, D2, F: k = 0
	dim := ` FROM D1 d1, F f, D2 d2` + w  // the same plan: k = 1, runs of 550 rows
	cases := []restoreCase{
		{"runs by fact row", `SELECT f.FID, d1.Name, d2.D2ID, f.V` + fact + ` AND f.V = 7`, true, []string{"SeqScan(F) filter", "HashJoin(D2)", "HashJoin(D1)"}},
		{"post-join filter on the last step", `SELECT f.FID, d1.D1ID, d2.D2ID` + fact + ` AND f.V = 7 AND d1.D1ID < f.W`, true, []string{"HashJoin(D1) filter"}},
		{"runs across batches", `SELECT *` + dim, true, []string{"SeqScan(D1)", "NestedLoop(D2)", "HashJoin(F)"}},
		{"runs across batches, filtered", `SELECT d1.D1ID, f.FID, f.W` + dim + ` AND d1.D1ID < f.W`, true, []string{"HashJoin(F) filter"}},
		{"one run", `SELECT *` + fact, false, []string{"NestedLoop(D2)"}},
		{"one run over probe batches", `SELECT d1.Name, f.FID, d2.D2ID` + dim + ` AND d2.D2ID < f.W`, false, []string{"SeqScan(F)", "HashJoin(D2) filter"}},
		{"nested loop", `SELECT f.FID, s.SID, d2.D2ID FROM F f, S s, D2 d2 WHERE f.B = d2.Key AND d2.Tag = 'hot' AND f.V < s.Lo`, false, []string{"NestedLoop(D2)", "HashJoin(F) filter"}},
		{"limit mid-run", `SELECT d1.D1ID, f.FID, d2.D2ID` + dim + ` LIMIT 30`, true, nil},
		{"limit one run", `SELECT f.FID, d1.D1ID` + fact + ` LIMIT 100`, false, nil},
		{"aggregate", `SELECT COUNT(*), SUM(f.V)` + dim, true, nil},
		{"group by", `SELECT d1.Name, COUNT(*), SUM(f.V)` + dim + ` GROUP BY d1.Name`, true, nil},
		{"distinct", `SELECT DISTINCT f.W, d2.Key` + fact, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkRestoreCase(t, s, tc) })
	}
	t.Run("spilled group by", func(t *testing.T) {
		s.SpillBudget = 1
		defer func() { s.SpillBudget = 0 }()
		checkRestoreCase(t, s, restoreCase{"spilled group by", `SELECT f.W, COUNT(*), SUM(f.V)` + fact + ` GROUP BY f.W`, false, nil})
	})
	t.Run("cancel mid-run", func(t *testing.T) {
		// A hot F row's run is 8 rows; a canceled cursor ends within it,
		// where a blocking Restore would return the whole join.
		q := `SELECT f.FID, d1.Name` + fact + ` AND f.V = 7`
		if k := keptPrefix(plannedOrder(t, s, q)); k == 0 {
			t.Fatalf("%s is not planned in runs", q)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rows, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		for i := 0; i < 5; i++ {
			if !rows.Next() {
				t.Fatalf("row %d: %v", i, rows.Err())
			}
		}
		cancel()
		after := 0
		for rows.Next() {
			after++
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", rows.Err())
		}
		if after >= 8 {
			t.Fatalf("%d rows after cancel; Restore buffered past its run", after)
		}
	})

	// Annotations on F and D1 cells and outdated marks on F.W, over hot rows.
	mustExec(t, s, `CREATE ANNOTATION TABLE Notes ON F`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Attrs ON D1`)
	mustExec(t, s, `ADD ANNOTATION TO F.Notes VALUE 'hot facts' ON (SELECT V, W FROM F WHERE B = 'b1' AND FID < 700)`)
	mustExec(t, s, `ADD ANNOTATION TO F.Notes VALUE 'fact rows' ON (SELECT * FROM F WHERE FID >= 400 AND FID < 1000)`)
	mustExec(t, s, `ADD ANNOTATION TO D1.Attrs VALUE 'names' ON (SELECT Name FROM D1 WHERE D1ID < 5)`)
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "F", Column: "V"}},
		Targets: []dependency.ColumnRef{{Table: "F", Column: "W"}},
		Proc:    dependency.Procedure{Name: "restore rule", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `UPDATE F SET V = 5 WHERE FID >= 300 AND FID < 900 AND B = 'b1'`)
	for _, tc := range []restoreCase{
		{"annotations", `SELECT f.FID, f.V, d1.Name, d2.D2ID FROM D1 ANNOTATION(*) d1, F ANNOTATION(*) f, D2 d2` + w, true, nil},
		{"annotations one run", `SELECT d1.Name, f.FID, f.W FROM F ANNOTATION(*) f, D1 ANNOTATION(Attrs) d1, D2 d2` + w, false, nil},
		{"outdated marks", `SELECT f.FID, f.W, d1.Name` + dim, true, nil},
		{"outdated marks one run", `SELECT f.FID, f.W, d1.Name` + fact, false, nil},
		{"marks grouped", `SELECT f.W, COUNT(*)` + dim + ` GROUP BY f.W`, true, nil},
		{"annotations limit", `SELECT f.FID, f.V PROMOTE (W), d1.Name FROM D1 d1, F ANNOTATION(Notes) f, D2 d2` + w + ` LIMIT 700`, true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !resultHasAnns(checkRestoreCase(t, s, tc)) {
				t.Fatalf("%s carries no annotations; the case compares none", tc.name)
			}
		})
	}
}

func resultHasAnns(res *Result) bool {
	for _, r := range res.Rows {
		if hasAnns(r.Anns) {
			return true
		}
	}
	return false
}

// sliceRows is a rowIter over prebuilt rows that counts its pulls.
type sliceRows struct {
	rows  []execRow
	pos   int
	pulls int
}

func (it *sliceRows) Next() (execRow, bool, error) {
	it.pulls++
	if it.pos >= len(it.rows) {
		return execRow{}, false, nil
	}
	it.pos++
	return it.rows[it.pos-1], true, nil
}

// restoreInput builds the execution-layout rows of a three-source join run
// in order: n rows of source 0, each joined to m rows of source 2 and, per
// those, to m rows of source 1 (one value column per source; the value is
// the RowID). order is the execution order.
func restoreInput(order []int, n, m int) (*physicalPlan, []execRow) {
	plan := &physicalPlan{order: order, reordered: true}
	for i := 0; i < 3; i++ {
		plan.sources = append(plan.sources, &sourcePlan{offset: i, numCols: 1})
	}
	var rows []execRow
	for a := 0; a < n; a++ {
		for b := 0; b < m; b++ {
			for c := 0; c < m; c++ {
				ids := [3]int64{int64(a), int64(b), int64(m - 1 - c)}
				r := execRow{values: make(value.Row, 3), origins: make([]origin, 3)}
				for p := range ids {
					r.values[p] = value.NewInt(ids[p])
					r.origins[p] = origin{table: fmt.Sprint(order[p]), rowID: ids[p]}
				}
				rows = append(rows, r)
			}
		}
	}
	return plan, rows
}

// TestRestoreStreamsRunsInPlace drives restoreIter directly: its output is
// sorted by syntactic RowIDs with values and origins in the syntactic
// layout, its first row costs one run of input pulls (plus the row that
// ends the run), and it allocates nothing per row.
func TestRestoreStreamsRunsInPlace(t *testing.T) {
	const n, m = 400, 3
	for _, order := range [][]int{{0, 2, 1}, {2, 0, 1}} {
		plan, rows := restoreInput(order, n, m)
		in := &sliceRows{rows: rows}
		it := newRestoreIter(in, plan)
		r, ok, err := it.Next()
		if !ok || err != nil {
			t.Fatalf("order %v: first row: %v %v", order, ok, err)
		}
		if want := m*m + 1; it.k > 0 && in.pulls != want {
			t.Fatalf("order %v: first row pulled %d input rows, want one run of %d", order, in.pulls, want)
		}
		var got [][3]int64
		for ok {
			var ids [3]int64
			for si := range ids {
				if r.origins[si].table != fmt.Sprint(si) || r.values[si].Int() != r.origins[si].rowID {
					t.Fatalf("order %v: slot %d holds %v from %v", order, si, r.values[si], r.origins[si])
				}
				ids[si] = r.origins[si].rowID
			}
			got = append(got, ids)
			if r, ok, err = it.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != n*m*m || !slices.IsSortedFunc(got, func(a, b [3]int64) int { return slices.Compare(a[:], b[:]) }) {
			t.Fatalf("order %v: %d rows, sorted = false", order, len(got))
		}
	}

	// The allocation guard: draining 10x the rows costs no more allocations
	// (k >= 1: runs reuse one buffer) or only the run buffer's growth (k = 0).
	for _, tc := range []struct {
		order []int
		slack float64
	}{{[]int{0, 2, 1}, 0}, {[]int{2, 0, 1}, 8}} {
		allocs := func(n int) float64 {
			plan, rows := restoreInput(tc.order, n, m)
			in := &sliceRows{rows: rows}
			return testing.AllocsPerRun(5, func() {
				in.pos = 0
				it := newRestoreIter(in, plan)
				for {
					if _, ok, _ := it.Next(); !ok {
						break
					}
				}
			})
		}
		small, big := allocs(n/10), allocs(n)
		if big-small > tc.slack {
			t.Errorf("order %v: %v allocations for %d rows, %v for %d: Restore allocates per row", tc.order, big, n*m*m, small, n/10*m*m)
		}
	}
}

// TestFoldAndMergeKeepAnnotationsBesideNilCells checks the grouping paths
// that meet rows without annotation cells (nil, meaning empty): folding or
// merging cells into a bucket whose cells are nil keeps them, and nil cells
// folded into a bucket's change nothing.
func TestFoldAndMergeKeepAnnotationsBesideNilCells(t *testing.T) {
	a1 := &annotation.Annotation{ID: 1, Body: "one"}
	a2 := &annotation.Annotation{ID: 2, Body: "two"}
	g := &groupAggIter{grouper: newSpillGrouper(grouperOps[groupBucket]{}, 1<<20, nil)}
	cells := func() [][]*annotation.Annotation { return [][]*annotation.Annotation{nil, {a1}, {a2}} }
	want := fmt.Sprint(cells())

	b := &groupBucket{}
	g.foldAnns(b, cells())
	if got := fmt.Sprint(b.anns); got != want {
		t.Errorf("foldAnns into nil cells: %s, want %s", got, want)
	}
	g.foldAnns(b, nil)
	if got := fmt.Sprint(b.anns); got != want {
		t.Errorf("foldAnns of nil cells: %s, want %s", got, want)
	}
	g.foldAnns(b, cells()) // union by ID: nothing new
	if got := fmt.Sprint(b.anns); got != want {
		t.Errorf("foldAnns of the same cells: %s, want %s", got, want)
	}

	dst := &groupBucket{}
	if err := g.mergeBuckets(dst, &groupBucket{anns: cells()}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(dst.anns); got != want {
		t.Errorf("mergeBuckets into nil cells: %s, want %s", got, want)
	}
	if err := g.mergeBuckets(dst, &groupBucket{}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(dst.anns); got != want {
		t.Errorf("mergeBuckets of nil cells: %s, want %s", got, want)
	}
	empty := &groupBucket{}
	if err := g.mergeBuckets(empty, &groupBucket{anns: make([][]*annotation.Annotation, 3)}); err != nil || empty.anns != nil {
		t.Errorf("mergeBuckets of empty cells into nil: %v, err %v; want nil", empty.anns, err)
	}
}
