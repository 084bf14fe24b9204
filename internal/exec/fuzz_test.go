package exec

// Property-based SQL equivalence fuzzing: a seeded generator produces random
// schemas, data and SELECTs (filters, joins, GROUP BY, ORDER BY, set
// operations, ANNOTATION/AWHERE/FILTER clauses) and asserts that the
// execution paths — the planned iterator pipeline with and without
// vectorization, the prepared-statement path with `?` parameters, and the
// NoOptimize naive reference — return identical rows AND identical propagated
// annotations. Generated INSERT/UPDATE/DELETE statements and rolled-back
// transactions run between the queries, under dependency rules that leave
// outdated marks, so the vectorized path is compared while it reads a patched
// columnar mirror of a marked table. Seeds are fixed, so the suite is
// deterministic in CI; a failure prints the full reproducing A-SQL script.

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bdbms/internal/dependency"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
)

// fuzzColumn describes one generated column.
type fuzzColumn struct {
	name string
	typ  string // INT, FLOAT, TEXT, BOOL
}

// fuzzTable describes one generated table.
type fuzzTable struct {
	name    string
	cols    []fuzzColumn
	pk      string
	indexed []string
	annTabs []string
	rows    int
	nextPK  int // next unused primary-key value (and INSERT counter)
}

func (ft *fuzzTable) colsOfType(typ string) []string {
	var out []string
	for _, c := range ft.cols {
		if c.typ == typ {
			out = append(out, c.name)
		}
	}
	return out
}

// fuzzCase is one generated database plus its workload. setup grows as the
// workload runs: every DML statement executed between queries is appended, so
// it always reproduces the database a failing query ran against.
type fuzzCase struct {
	setup  []string
	tables []*fuzzTable
}

// fuzzRules are the dependency rules every fuzz database runs under (they
// have no A-SQL spelling, so reproScript names them in a comment): an UPDATE
// of the source column leaves an outdated mark on the target cell of the row.
var fuzzRules = []struct{ table, source, target string }{
	{"T1", "B", "D"},
	{"T2", "R", "S"},
}

// genValue draws one literal for column c of ft; i is the row's ordinal, which
// a primary-key column takes as its value.
func genValue(r *rand.Rand, ft *fuzzTable, c fuzzColumn, i int) string {
	if c.name == ft.pk {
		return fmt.Sprint(i + 1)
	}
	if r.Intn(10) == 0 {
		return "NULL"
	}
	switch c.typ {
	case "INT":
		return fmt.Sprint(r.Intn(10))
	case "FLOAT":
		return pick(r, []string{"-2.5", "0.0", "1.25", "3.5", "7.75"})
	case "TEXT":
		return "'" + pick(r, fuzzTexts) + "'"
	default:
		return pick(r, []string{"TRUE", "FALSE"})
	}
}

// genInsert renders an INSERT of one fresh row into ft.
func genInsert(r *rand.Rand, ft *fuzzTable) string {
	vals := make([]string, len(ft.cols))
	for j, c := range ft.cols {
		vals[j] = genValue(r, ft, c, ft.nextPK)
	}
	ft.nextPK++
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", ft.name, strings.Join(vals, ", "))
}

var fuzzTexts = []string{"alpha", "beta", "gamma", "delta", "omega"}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// genCase generates the schema, data and annotations of one fuzz database.
// A big case gives T1 a primary key and enough rows for four columnar
// chunks, so writes between queries patch some chunks and share the rest.
func genCase(r *rand.Rand, big bool) *fuzzCase {
	fc := &fuzzCase{}
	t1 := &fuzzTable{
		name: "T1",
		cols: []fuzzColumn{
			{"A", "INT"}, {"B", "INT"}, {"C", "TEXT"}, {"D", "FLOAT"}, {"E", "BOOL"},
		},
		rows: 15 + r.Intn(25),
	}
	if r.Intn(2) == 0 || big {
		t1.pk = "A"
	}
	if big {
		t1.rows += 3 * storage.ColChunkRows
	}
	t2 := &fuzzTable{
		name: "T2",
		cols: []fuzzColumn{{"K", "INT"}, {"R", "INT"}, {"S", "TEXT"}},
		pk:   "K",
		rows: 10 + r.Intn(20),
	}
	fc.tables = []*fuzzTable{t1, t2}

	for _, ft := range fc.tables {
		var defs []string
		for _, c := range ft.cols {
			def := c.name + " " + c.typ
			if c.name == ft.pk {
				def += " NOT NULL PRIMARY KEY"
			}
			defs = append(defs, def)
		}
		fc.setup = append(fc.setup, fmt.Sprintf("CREATE TABLE %s (%s)", ft.name, strings.Join(defs, ", ")))
	}
	// Random secondary indexes so the planner's index probes get exercised.
	for _, cand := range []struct{ tbl, col string }{
		{"T1", "B"}, {"T1", "C"}, {"T1", "D"}, {"T2", "R"}, {"T2", "S"},
	} {
		if r.Intn(2) == 0 {
			fc.setup = append(fc.setup, fmt.Sprintf("CREATE INDEX ON %s (%s)", cand.tbl, cand.col))
			for _, ft := range fc.tables {
				if ft.name == cand.tbl {
					ft.indexed = append(ft.indexed, cand.col)
				}
			}
		}
	}

	// Data: small value domains so filters, joins and groups actually match.
	for _, ft := range fc.tables {
		for i := 0; i < ft.rows; i++ {
			fc.setup = append(fc.setup, genInsert(r, ft))
		}
	}

	// Annotation tables and a few annotations over random regions.
	t1.annTabs = []string{"Notes", "Tags"}
	t2.annTabs = []string{"Notes"}
	for _, ft := range fc.tables {
		for _, at := range ft.annTabs {
			fc.setup = append(fc.setup,
				fmt.Sprintf("CREATE ANNOTATION TABLE %s ON %s", at, ft.name))
		}
	}
	for i := 0; i < 2+r.Intn(3); i++ {
		ft := pick(r, fc.tables)
		at := pick(r, ft.annTabs)
		col := pick(r, ft.cols)
		var where string
		switch col.typ {
		case "INT":
			where = fmt.Sprintf("%s < %d", col.name, 2+r.Intn(8))
		case "FLOAT":
			where = fmt.Sprintf("%s > 0.5", col.name)
		case "TEXT":
			where = fmt.Sprintf("%s = '%s'", col.name, pick(r, fuzzTexts))
		default:
			where = col.name + " = TRUE"
		}
		proj := pick(r, ft.cols).name
		if r.Intn(3) == 0 {
			proj = "*"
		}
		fc.setup = append(fc.setup, fmt.Sprintf(
			"ADD ANNOTATION TO %s.%s VALUE 'fuzz note %d' ON (SELECT %s FROM %s WHERE %s)",
			ft.name, at, i, proj, ft.name, where))
	}
	return fc
}

// queryGen accumulates one generated query in both inline-literal and
// prepared (`?` placeholder) forms. Placeholders are emitted left to right,
// so args line up with the prepared statement's numbering.
type queryGen struct {
	r    *rand.Rand
	args []any
}

// literal renders v inline and, with probability 1/2, as a placeholder in
// the prepared text.
func (g *queryGen) literal(inline string, v any) (string, string) {
	if g.r.Intn(2) == 0 {
		g.args = append(g.args, v)
		return inline, "?"
	}
	return inline, inline
}

// comparison generates one type-correct predicate leaf over table ft
// (qualified when qual is set). It returns inline and prepared renderings.
func (g *queryGen) comparison(ft *fuzzTable, qual bool) (string, string) {
	col := pick(g.r, ft.cols)
	name := col.name
	if qual {
		name = ft.name + "." + name
	}
	switch g.r.Intn(6) {
	case 0:
		return name + " IS NULL", name + " IS NULL"
	case 1:
		return name + " IS NOT NULL", name + " IS NOT NULL"
	}
	switch col.typ {
	case "INT":
		op := pick(g.r, []string{"=", "<>", "<", "<=", ">", ">="})
		n := g.r.Intn(10)
		in, prep := g.literal(fmt.Sprint(n), int64(n))
		return fmt.Sprintf("%s %s %s", name, op, in), fmt.Sprintf("%s %s %s", name, op, prep)
	case "FLOAT":
		op := pick(g.r, []string{"<", "<=", ">", ">=", "=", "<>"})
		f := pick(g.r, []string{"-2.5", "0.0", "1.25", "3.5", "7.75"})
		var fv float64
		fmt.Sscanf(f, "%g", &fv)
		in, prep := g.literal(f, fv)
		return fmt.Sprintf("%s %s %s", name, op, in), fmt.Sprintf("%s %s %s", name, op, prep)
	case "TEXT":
		if g.r.Intn(4) == 0 {
			pat := "'%" + pick(g.r, []string{"a", "e", "mm", "lt"}) + "%'"
			return name + " LIKE " + pat, name + " LIKE " + pat
		}
		op := pick(g.r, []string{"=", "<>", "<", ">"})
		s := pick(g.r, fuzzTexts)
		in, prep := g.literal("'"+s+"'", s)
		return fmt.Sprintf("%s %s %s", name, op, in), fmt.Sprintf("%s %s %s", name, op, prep)
	default:
		lit := pick(g.r, []string{"TRUE", "FALSE"})
		return name + " = " + lit, name + " = " + lit
	}
}

// boolExpr generates a boolean expression tree of the given depth.
func (g *queryGen) boolExpr(ft *fuzzTable, qual bool, depth int) (string, string) {
	if depth <= 0 || g.r.Intn(3) == 0 {
		return g.comparison(ft, qual)
	}
	switch g.r.Intn(3) {
	case 0:
		li, lp := g.boolExpr(ft, qual, depth-1)
		ri, rp := g.boolExpr(ft, qual, depth-1)
		op := pick(g.r, []string{"AND", "OR"})
		return fmt.Sprintf("(%s %s %s)", li, op, ri), fmt.Sprintf("(%s %s %s)", lp, op, rp)
	case 1:
		ei, ep := g.boolExpr(ft, qual, depth-1)
		return "NOT " + ei, "NOT " + ep
	default:
		return g.comparison(ft, qual)
	}
}

// fromClause renders one FROM entry, sometimes propagating annotations.
func (g *queryGen) fromClause(ft *fuzzTable) string {
	if len(ft.annTabs) > 0 && g.r.Intn(5) < 2 {
		if g.r.Intn(2) == 0 {
			return ft.name + " ANNOTATION(*)"
		}
		return fmt.Sprintf("%s ANNOTATION(%s)", ft.name, pick(g.r, ft.annTabs))
	}
	return ft.name
}

// genQuery builds one SELECT in inline and prepared forms.
func (g *queryGen) genQuery(fc *fuzzCase) (string, string) {
	t1, t2 := fc.tables[0], fc.tables[1]
	switch g.r.Intn(8) {
	case 0, 1: // single-table with filters, maybe DISTINCT/ORDER/LIMIT
		ft := pick(g.r, fc.tables)
		cols := []string{}
		for _, c := range ft.cols {
			if g.r.Intn(2) == 0 {
				cols = append(cols, c.name)
			}
		}
		proj := "*"
		var allCols []string
		for _, c := range ft.cols {
			allCols = append(allCols, c.name)
		}
		if len(cols) > 0 && g.r.Intn(4) > 0 {
			proj = strings.Join(cols, ", ")
		} else {
			cols = allCols
		}
		distinct := ""
		if g.r.Intn(5) == 0 {
			distinct = "DISTINCT "
		}
		wi, wp := g.boolExpr(ft, false, 2)
		// Ordering may reference non-projected columns (rejected with
		// DISTINCT — the error-equivalence path covers those draws).
		tail, _ := g.orderLimit(cols, allCols)
		from := g.fromClause(ft)
		inline := fmt.Sprintf("SELECT %s%s FROM %s WHERE %s%s", distinct, proj, from, wi, tail)
		prep := fmt.Sprintf("SELECT %s%s FROM %s WHERE %s%s", distinct, proj, from, wp, tail)
		return inline, prep
	case 2, 3: // equi-join between T1 and T2
		joinCol1, joinCol2 := "B", "R" // INT = INT
		if g.r.Intn(3) == 0 {
			joinCol1, joinCol2 = "C", "S" // TEXT = TEXT
		}
		w1i, w1p := g.boolExpr(t1, true, 1)
		w2i, w2p := g.boolExpr(t2, true, 1)
		proj := "T1." + pick(g.r, t1.cols).name + ", T2." + pick(g.r, t2.cols).name
		base := fmt.Sprintf("SELECT %s FROM %s, %s WHERE T1.%s = T2.%s AND %%s AND %%s",
			proj, g.fromClause(t1), g.fromClause(t2), joinCol1, joinCol2)
		return fmt.Sprintf(base, w1i, w2i), fmt.Sprintf(base, w1p, w2p)
	case 4: // GROUP BY with aggregates, maybe HAVING
		ft := pick(g.r, fc.tables)
		groupCol := pick(g.r, ft.colsOfType("TEXT"))
		intCol := pick(g.r, ft.colsOfType("INT"))
		agg := pick(g.r, []string{
			"COUNT(*)",
			fmt.Sprintf("SUM(%s)", intCol),
			fmt.Sprintf("MIN(%s)", intCol),
			fmt.Sprintf("MAX(%s)", intCol),
			fmt.Sprintf("AVG(%s)", intCol),
		})
		having := ""
		if g.r.Intn(2) == 0 {
			having = fmt.Sprintf(" HAVING COUNT(*) >= %d", 1+g.r.Intn(3))
		}
		wi, wp := g.boolExpr(ft, false, 1)
		order := fmt.Sprintf(" ORDER BY %s", groupCol)
		inline := fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s GROUP BY %s%s%s",
			groupCol, agg, ft.name, wi, groupCol, having, order)
		prep := fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s GROUP BY %s%s%s",
			groupCol, agg, ft.name, wp, groupCol, having, order)
		return inline, prep
	case 5: // set operation over type-compatible projections
		op := pick(g.r, []string{"UNION", "INTERSECT", "EXCEPT"})
		w1i, w1p := g.boolExpr(t1, false, 1)
		w2i, w2p := g.boolExpr(t2, false, 1)
		base := "SELECT C FROM T1 WHERE %s " + op + " SELECT S FROM T2 WHERE %s"
		tail, _ := g.orderLimit([]string{"C"}, nil)
		return fmt.Sprintf(base, w1i, w2i) + tail, fmt.Sprintf(base, w1p, w2p) + tail
	case 6: // annotation-aware query with AWHERE / FILTER
		ft := pick(g.r, fc.tables)
		wi, wp := g.boolExpr(ft, false, 1)
		annClause := pick(g.r, []string{
			" AWHERE ANN.AUTHOR = 'admin'",
			" AWHERE ANN.VALUE LIKE '%note%'",
			fmt.Sprintf(" FILTER ANN.TABLE = '%s'", pick(g.r, ft.annTabs)),
		})
		inline := fmt.Sprintf("SELECT * FROM %s ANNOTATION(*) WHERE %s%s", ft.name, wi, annClause)
		prep := fmt.Sprintf("SELECT * FROM %s ANNOTATION(*) WHERE %s%s", ft.name, wp, annClause)
		return inline, prep
	default: // indexed point/range query shape (planner fast path)
		ft := pick(g.r, fc.tables)
		col := ""
		if len(ft.indexed) > 0 {
			col = pick(g.r, ft.indexed)
		} else if ft.pk != "" {
			col = ft.pk
		} else {
			col = ft.cols[0].name
		}
		var typ string
		for _, c := range ft.cols {
			if c.name == col {
				typ = c.typ
			}
		}
		var in, prep string
		switch typ {
		case "TEXT":
			s := pick(g.r, fuzzTexts)
			li, lp := g.literal("'"+s+"'", s)
			in, prep = fmt.Sprintf("%s = %s", col, li), fmt.Sprintf("%s = %s", col, lp)
		case "FLOAT":
			in, prep = col+" >= 1.25", col+" >= 1.25"
		default:
			n := g.r.Intn(12)
			li, lp := g.literal(fmt.Sprint(n), int64(n))
			op := pick(g.r, []string{"=", ">=", "<"})
			in, prep = fmt.Sprintf("%s %s %s", col, op, li), fmt.Sprintf("%s %s %s", col, op, lp)
		}
		inline := fmt.Sprintf("SELECT * FROM %s WHERE %s", ft.name, in)
		return inline, fmt.Sprintf("SELECT * FROM %s WHERE %s", ft.name, prep)
	}
}

// orderLimit renders an optional ORDER BY and LIMIT tail. Keys usually come
// from the output columns; when allCols is non-nil a key is occasionally
// drawn from the full source column list instead, exercising ORDER BY on
// non-projected columns (and its rejection under DISTINCT).
func (g *queryGen) orderLimit(cols, allCols []string) (string, bool) {
	var tail string
	ordered := false
	if len(cols) > 0 && g.r.Intn(3) == 0 {
		pool := cols
		if len(allCols) > 0 && g.r.Intn(4) == 0 {
			pool = allCols
		}
		keys := 1 + g.r.Intn(2)
		var parts []string
		for i := 0; i < keys; i++ {
			col := pick(g.r, pool)
			dir := ""
			if g.r.Intn(2) == 0 {
				dir = " DESC"
			}
			parts = append(parts, col+dir)
		}
		tail += " ORDER BY " + strings.Join(parts, ", ")
		ordered = true
	}
	if g.r.Intn(4) == 0 {
		tail += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(20))
	}
	return tail, ordered
}

// genDML generates the statements of one write step between two queries: an
// INSERT, an UPDATE (half of them of a dependency rule's source column, so
// marks accumulate) or a DELETE, one time in five wrapped in a transaction
// that is rolled back. Predicates are either a primary-key point (one row,
// one dirty chunk) or a generated comparison (anything up to the whole
// table). A big case's first step deletes the whole second chunk of T1. The
// step comes back in an inline and a prepared spelling, like genQuery's; the
// prepared mutation binds g.args (a primary-key point is always a `?`).
func (g *queryGen) genDML(fc *fuzzCase, step int, big bool) (inline, prepared []string) {
	if big && step == 0 {
		lo, hi := storage.ColChunkRows, 2*storage.ColChunkRows
		g.args = []any{int64(lo), int64(hi)}
		return []string{fmt.Sprintf("DELETE FROM T1 WHERE A > %d AND A <= %d", lo, hi)},
			[]string{"DELETE FROM T1 WHERE A > ? AND A <= ?"}
	}
	ft := pick(g.r, fc.tables)
	where := func() (string, string) {
		if ft.pk != "" && g.r.Intn(3) > 0 {
			n := 1 + g.r.Intn(ft.nextPK)
			g.args = append(g.args, int64(n))
			return fmt.Sprintf("%s = %d", ft.pk, n), ft.pk + " = ?"
		}
		return g.comparison(ft, false)
	}
	var head string // the statement up to its WHERE condition
	var cond, prepCond string
	switch g.r.Intn(6) {
	case 0, 1:
		head = genInsert(g.r, ft)
	case 2:
		// Deletes by comparison are narrowed so the tables do not drain.
		cond, prepCond = where()
		if ft.pk == "" || !strings.HasPrefix(cond, ft.pk+" = ") {
			narrow := fmt.Sprintf(" AND %s = %d", ft.colsOfType("INT")[1], g.r.Intn(10))
			cond, prepCond = cond+narrow, prepCond+narrow
		}
		head = fmt.Sprintf("DELETE FROM %s WHERE ", ft.name)
	default:
		var settable []fuzzColumn
		for _, c := range ft.cols {
			if c.name != ft.pk {
				settable = append(settable, c)
			}
		}
		col := pick(g.r, settable)
		if g.r.Intn(2) == 0 {
			for _, rule := range fuzzRules {
				for _, c := range ft.cols {
					if rule.table == ft.name && rule.source == c.name {
						col = c
					}
				}
			}
		}
		head = fmt.Sprintf("UPDATE %s SET %s = %s WHERE ", ft.name, col.name, genValue(g.r, ft, col, 0))
		cond, prepCond = where()
	}
	inline, prepared = []string{head + cond}, []string{head + prepCond}
	if g.r.Intn(5) == 0 {
		wrap := func(stmts []string) []string { return []string{"BEGIN", stmts[0], "ROLLBACK"} }
		return wrap(inline), wrap(prepared)
	}
	return inline, prepared
}

// canonResult renders a result for comparison: columns, then each row's
// values with its annotations (sorted per row for stability).
func canonResult(res *Result) string {
	return canon(res, true)
}

// canon renders a result; with sortAnns unset each row's annotations stay in
// the order the executor attached them.
func canon(res *Result, sortAnns bool) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		b.WriteString("\n")
		parts := make([]string, len(row.Values))
		for i, v := range row.Values {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, "|"))
		var anns []string
		for _, a := range row.AnnotationsFlat() {
			anns = append(anns, fmt.Sprintf("[%s~%s~%s]", a.AnnTable, a.Author, a.PlainBody()))
		}
		if sortAnns {
			sort.Strings(anns)
		}
		b.WriteString(strings.Join(anns, ""))
	}
	return b.String()
}

// reproScript renders the full reproducing script for a failure report.
func reproScript(fc *fuzzCase, query string) string {
	var b strings.Builder
	for _, rule := range fuzzRules {
		fmt.Fprintf(&b, "-- under the non-executable dependency rule %s.%s -> %s.%s\n", rule.table, rule.source, rule.table, rule.target)
	}
	for _, s := range fc.setup {
		b.WriteString(s)
		b.WriteString(";\n")
	}
	b.WriteString(query)
	b.WriteString(";\n")
	return b.String()
}

// TestSQLEquivalenceFuzz is the property-based equivalence suite: for a set
// of fixed seeds, planned, prepared and naive execution must agree on every
// generated query.
func TestSQLEquivalenceFuzz(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	queriesPerSeed := 40
	if testing.Short() {
		seeds = seeds[:3]
		queriesPerSeed = 15
	}
	batchScans.Store(0)
	batchMarkedAggs.Store(0)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			// Seed 3 (so -short keeps it) is the four-chunk case.
			fuzzSeed(t, seed, queriesPerSeed, 0, seed == 3)
		})
	}
	if batchScans.Load() == 0 {
		t.Error("no generated query ran the vectorized scan; the batched path is untested")
	}
	if batchMarkedAggs.Load() == 0 {
		t.Error("no generated aggregate consumed batches on a table with outdated marks")
	}
}

// TestSQLEquivalenceFuzzSpill re-runs equivalence seeds with a one-byte
// spill budget, so every blocking operator (grouped aggregation, DISTINCT,
// UNION, external sort) takes its spill path on every query — proving
// planned == naive for the spilled operators too. The generated FLOAT
// domain is exactly representable in binary, so spill-order-dependent
// summation cannot introduce rounding differences.
func TestSQLEquivalenceFuzzSpill(t *testing.T) {
	seeds := []int64{11, 12, 13}
	queriesPerSeed := 25
	if testing.Short() {
		seeds = seeds[:1]
		queriesPerSeed = 10
	}
	spillEvents.Store(0)
	batchScans.Store(0)
	batchMarkedAggs.Store(0)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d-spill", seed), func(t *testing.T) {
			// Seed 11 (so -short keeps it) is the four-chunk case.
			fuzzSeed(t, seed, queriesPerSeed, 1, seed == 11)
		})
	}
	if spillEvents.Load() == 0 {
		t.Error("spill-forcing seeds never spilled")
	}
	if batchScans.Load() == 0 {
		t.Error("spill-forcing seeds never ran the vectorized scan; batched aggregation never spilled")
	}
	if batchMarkedAggs.Load() == 0 {
		t.Error("spill-forcing seeds never aggregated batches of a table with outdated marks")
	}
}

var rowsEstimate = regexp.MustCompile(` rows~\d+`)

// planShape renders the part of a statement's EXPLAIN that may not depend on
// how its constants are spelled: every operator with its access path and
// filter marks, with the ` ?` markers removed. What the cost model chooses
// from its estimates is left out, because a bound that takes its value from
// a `?` is estimated at the default selectivity: the syntactic join order is
// pinned, the rows~N estimates are dropped, and Top-N and full sort read alike.
func planShape(t *testing.T, s *Session, sql string) string {
	t.Helper()
	pinned := s.NoReorder
	s.NoReorder = true
	defer func() { s.NoReorder = pinned }()
	res, err := s.Exec("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		line := rowsEstimate.ReplaceAllString(strings.ReplaceAll(r.Values[0].Text(), " ?", ""), "")
		if op := strings.TrimSpace(line); strings.HasPrefix(op, "TopN(") || strings.HasPrefix(op, "Sort(") {
			line = "Order"
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// samePlanShape is the invariant that a statement's plan does not depend on
// the spelling of its constants: the inline and the `?` form of one generated
// statement explain to the same shape.
func samePlanShape(t *testing.T, s *Session, fc *fuzzCase, inline, prepared string) {
	t.Helper()
	if in, prep := planShape(t, s, inline), planShape(t, s, prepared); in != prep {
		t.Fatalf("plan depends on how the constants are spelled\ninline:   %s\n%sprepared: %s\n%srepro script:\n%s",
			inline, in, prepared, prep, reproScript(fc, "EXPLAIN "+prepared))
	}
}

// referenceMatchCount is the oracle for which rows a mutation touches: for an
// UPDATE or DELETE it runs SELECT COUNT(*) FROM <table> WHERE <same
// condition> through the NoOptimize reference executor, which shares no scan
// code with the planned pipeline the mutation's read phase drains. Other
// statements return -1.
func referenceMatchCount(t *testing.T, s *Session, sql string) int {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	var table string
	var where sqlparse.Expr
	switch st := stmt.(type) {
	case *sqlparse.UpdateStmt:
		table, where = st.Table, st.Where
	case *sqlparse.DeleteStmt:
		table, where = st.Table, st.Where
	default:
		return -1
	}
	s.NoOptimize = true
	defer func() { s.NoOptimize = false }()
	res, err := s.ExecStmt(&sqlparse.SelectStmt{
		Items: []sqlparse.SelectItem{{Expr: &sqlparse.AggregateExpr{Func: "COUNT", Star: true}}},
		From:  []sqlparse.TableRef{{Table: table}},
		Where: where,
		Limit: -1,
	})
	if err != nil {
		t.Fatalf("reference count for %q: %v", sql, err)
	}
	if len(res.Rows) == 0 {
		return 0 // an aggregate over no rows yields no group
	}
	return int(res.Rows[0].Values[0].Int())
}

// fuzzSeed runs one generated database + workload with the given spill
// budget (0 = default): queries with write steps between them.
func fuzzSeed(t *testing.T, seed int64, queriesPerSeed, spillBudget int, big bool) {
	r := rand.New(rand.NewSource(seed))
	fc := genCase(r, big)
	s := newSession(t)
	s.User = "admin"
	s.SpillBudget = spillBudget
	for _, stmt := range fc.setup {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("setup %q: %v", stmt, err)
		}
	}
	for _, rule := range fuzzRules {
		if _, err := s.Dep.AddRule(dependency.Rule{
			Sources: []dependency.ColumnRef{{Table: rule.table, Column: rule.source}},
			Targets: []dependency.ColumnRef{{Table: rule.table, Column: rule.target}},
			Proc:    dependency.Procedure{Name: "fuzz rule", Executable: false},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rejected, writeSteps := 0, 0
	for q := 0; q < queriesPerSeed; q++ {
		g := &queryGen{r: r}
		if q > 0 && r.Intn(3) > 0 {
			// Its own generator: DML predicates must not leave bind arguments
			// behind for the query's prepared form.
			dg := &queryGen{r: r}
			inl, prep := dg.genDML(fc, writeSteps, big)
			for i, stmt := range inl {
				want := referenceMatchCount(t, s, stmt)
				if want >= 0 {
					samePlanShape(t, s, fc, stmt, prep[i])
				}
				// Every other write step runs in its prepared spelling, held to
				// the same reference count.
				var res *Result
				var err error
				if st, prepErr := s.Prepare(prep[i]); prepErr != nil {
					err = prepErr
				} else if writeSteps%2 == 1 && st.NumParams() > 0 {
					res, err = st.Exec(dg.args...)
				} else {
					res, err = s.Exec(stmt)
				}
				if err != nil {
					t.Fatalf("seed %d before query %d: %q: %v\nrepro script:\n%s", seed, q, stmt, err, reproScript(fc, stmt))
				}
				if want >= 0 && res.Affected != want {
					t.Fatalf("seed %d before query %d: %q affected %d row(s), the reference executor counts %d\nrepro script:\n%s",
						seed, q, stmt, res.Affected, want, reproScript(fc, stmt))
				}
				fc.setup = append(fc.setup, stmt)
			}
			writeSteps++
		}
		inline, prepared := g.genQuery(fc)

		s.NoOptimize = true
		naive, naiveErr := s.Exec(inline)
		s.NoOptimize = false
		planned, plannedErr := s.Exec(inline)
		// Third way: the planned pipeline with vectorization disabled, so the
		// batched scan/filter/aggregate path and the row-at-a-time path are
		// held to identical results on every query.
		s.NoVectorize = true
		rowPath, rowErr := s.Exec(inline)
		s.NoVectorize = false
		if naiveErr != nil {
			// The generator can produce statements the engine
			// rejects (e.g. ORDER BY over a set operation). The
			// property still holds: every path must reject them.
			if plannedErr == nil {
				t.Fatalf("seed %d query %d: naive rejects (%v) but planned accepts\nquery: %s\nrepro script:\n%s",
					seed, q, naiveErr, inline, reproScript(fc, inline))
			}
			if rowErr == nil {
				t.Fatalf("seed %d query %d: naive rejects (%v) but NoVectorize planned accepts\nquery: %s\nrepro script:\n%s",
					seed, q, naiveErr, inline, reproScript(fc, inline))
			}
			if stmt, err := s.Prepare(prepared); err == nil {
				if _, err := stmt.Exec(g.args...); err == nil {
					t.Fatalf("seed %d query %d: naive rejects (%v) but prepared accepts\nquery: %s\nrepro script:\n%s",
						seed, q, naiveErr, prepared, reproScript(fc, prepared))
				}
			}
			rejected++
			continue
		}
		if plannedErr != nil {
			t.Fatalf("seed %d query %d: planned %q: %v\nrepro script:\n%s",
				seed, q, inline, plannedErr, reproScript(fc, inline))
		}
		samePlanShape(t, s, fc, inline, prepared)
		stmt, err := s.Prepare(prepared)
		if err != nil {
			t.Fatalf("seed %d query %d: prepare %q: %v", seed, q, prepared, err)
		}
		prepRes, err := stmt.Exec(g.args...)
		if err != nil {
			t.Fatalf("seed %d query %d: prepared exec %q args %v: %v", seed, q, prepared, g.args, err)
		}

		if rowErr != nil {
			t.Fatalf("seed %d query %d: NoVectorize planned %q: %v\nrepro script:\n%s",
				seed, q, inline, rowErr, reproScript(fc, inline))
		}
		want := canonResult(naive)
		if got := canonResult(planned); got != want {
			t.Fatalf("seed %d query %d: planned != naive\nquery: %s\n got: %s\nwant: %s\nrepro script:\n%s",
				seed, q, inline, got, want, reproScript(fc, inline))
		}
		if got := canonResult(rowPath); got != want {
			t.Fatalf("seed %d query %d: NoVectorize planned != naive\nquery: %s\n got: %s\nwant: %s\nrepro script:\n%s",
				seed, q, inline, got, want, reproScript(fc, inline))
		}
		// The two planned paths must also attach annotations in the same
		// order (batched aggregation folds outdated marks itself).
		if got, want := canon(planned, false), canon(rowPath, false); got != want {
			t.Fatalf("seed %d query %d: vectorized and row-at-a-time annotation order differ\nquery: %s\n got: %s\nwant: %s\nrepro script:\n%s",
				seed, q, inline, got, want, reproScript(fc, inline))
		}
		if got := canonResult(prepRes); got != want {
			t.Fatalf("seed %d query %d: prepared != naive\nquery: %s\nargs: %v\n got: %s\nwant: %s\nrepro script:\n%s",
				seed, q, prepared, g.args, got, want, reproScript(fc, prepared))
		}
		// Re-execute the prepared statement to exercise the plan
		// cache (second run must hit the cached physical plan).
		prepRes2, err := stmt.Exec(g.args...)
		if err != nil {
			t.Fatalf("seed %d query %d: prepared re-exec: %v", seed, q, err)
		}
		if got := canonResult(prepRes2); got != want {
			t.Fatalf("seed %d query %d: cached plan diverges\nquery: %s\nrepro script:\n%s",
				seed, q, prepared, reproScript(fc, prepared))
		}
	}
	if rejected > queriesPerSeed/2 {
		t.Errorf("seed %d: %d/%d queries rejected; generator has drifted from the grammar",
			seed, rejected, queriesPerSeed)
	}
	if big {
		// The point of the big case: scans after a write read a mirror that
		// was patched, not rebuilt.
		t1, err := s.Eng.Table("T1")
		if err != nil {
			t.Fatal(err)
		}
		if st := t1.ColumnarStats(); st.Patches == 0 || len(t1.ColumnarData().Chunks) < 3 {
			t.Errorf("seed %d: T1 mirror of %d chunks cost %+v; no generation was patched", seed, len(t1.ColumnarData().Chunks), st)
		} else {
			t.Logf("seed %d: T1 mirror cost %+v over %d write steps", seed, st, writeSteps)
		}
	}
}

// --- join-order fuzzing -------------------------------------------------------

// genJoinCase generates a 3-5 table star/chain schema for join-order fuzzing:
// every table has an INT primary key, two join columns over small shared
// domains (occasionally NULL, so key-match semantics under both join
// strategies are exercised), and a payload column for selective filters. Row
// counts differ by an order of magnitude and some tables draw their join
// column heavily skewed, so the cost-based planner has real cardinality
// differences to exploit; indexes are created at random so plans mix indexed
// and unindexed access.
func genJoinCase(r *rand.Rand) *fuzzCase {
	fc := &fuzzCase{}
	n := 3 + r.Intn(3)
	rows := make([]int, n)
	product := 1
	for i := range rows {
		rows[i] = pick(r, []int{3, 6, 12, 25, 50})
		product *= rows[i]
	}
	// The naive reference evaluates the full cross product; cap its size so
	// the suite stays fast while the spread between small and large tables
	// (what the cost-based search exploits) is preserved.
	for product > 200_000 {
		max := 0
		for i, n := range rows {
			if n > rows[max] {
				max = i
			}
		}
		product = product / rows[max] * (rows[max] / 2)
		rows[max] /= 2
	}
	for i := 0; i < n; i++ {
		ft := &fuzzTable{
			name: fmt.Sprintf("J%d", i+1),
			cols: []fuzzColumn{{"ID", "INT"}, {"G", "INT"}, {"H", "INT"}, {"V", "INT"}},
			pk:   "ID",
			rows: rows[i],
		}
		fc.tables = append(fc.tables, ft)
		fc.setup = append(fc.setup, fmt.Sprintf(
			"CREATE TABLE %s (ID INT NOT NULL PRIMARY KEY, G INT, H INT, V INT)", ft.name))
		for _, col := range []string{"G", "H"} {
			if r.Intn(2) == 0 {
				fc.setup = append(fc.setup, fmt.Sprintf("CREATE INDEX ON %s (%s)", ft.name, col))
				ft.indexed = append(ft.indexed, col)
			}
		}
	}
	for _, ft := range fc.tables {
		skewed := r.Intn(3) == 0
		for i := 0; i < ft.rows; i++ {
			g := fmt.Sprint(r.Intn(5))
			if skewed && r.Intn(4) > 0 {
				g = "0"
			}
			h := fmt.Sprint(r.Intn(10))
			if r.Intn(10) == 0 {
				g = "NULL"
			}
			if r.Intn(10) == 0 {
				h = "NULL"
			}
			fc.setup = append(fc.setup, fmt.Sprintf(
				"INSERT INTO %s VALUES (%d, %s, %s, %d)", ft.name, i+1, g, h, r.Intn(100)))
		}
	}
	// Annotations on the first table: the decorator indexes row origins by
	// syntactic source position, so propagation through a REORDERED join
	// pipeline is exactly what must stay invisible.
	fc.tables[0].annTabs = []string{"Notes"}
	fc.setup = append(fc.setup, "CREATE ANNOTATION TABLE Notes ON J1")
	fc.setup = append(fc.setup,
		"ADD ANNOTATION TO J1.Notes VALUE 'join fuzz' ON (SELECT * FROM J1 WHERE V < 50)")
	return fc
}

// genJoinQuery builds one multi-way equi-join over a random permutation of
// the case's tables: a random spanning tree of join edges (so the join graph
// is connected but its shape varies), random selective single-table
// predicates, and an optional ORDER BY/LIMIT tail. Inline and prepared forms
// are returned like genQuery's.
func (g *queryGen) genJoinQuery(fc *fuzzCase) (string, string) {
	perm := g.r.Perm(len(fc.tables))
	var from []string
	for _, ti := range perm {
		ft := fc.tables[ti]
		if len(ft.annTabs) > 0 && g.r.Intn(3) == 0 {
			from = append(from, ft.name+" ANNOTATION(*)")
		} else {
			from = append(from, ft.name)
		}
	}
	var condsIn, condsPrep []string
	joinCols := []string{"G", "H"}
	for i := 1; i < len(perm); i++ {
		left := fc.tables[perm[g.r.Intn(i)]].name
		right := fc.tables[perm[i]].name
		cond := fmt.Sprintf("%s.%s = %s.%s", left, pick(g.r, joinCols), right, pick(g.r, joinCols))
		condsIn = append(condsIn, cond)
		condsPrep = append(condsPrep, cond)
	}
	for _, ti := range perm {
		if g.r.Intn(2) != 0 {
			continue
		}
		ft := fc.tables[ti]
		col := pick(g.r, []string{"V", "G", "ID"})
		op := pick(g.r, []string{"=", "<", "<=", ">", ">="})
		bound := g.r.Intn(100)
		if col != "V" {
			bound = g.r.Intn(10)
		}
		in, prep := g.literal(fmt.Sprint(bound), int64(bound))
		condsIn = append(condsIn, fmt.Sprintf("%s.%s %s %s", ft.name, col, op, in))
		condsPrep = append(condsPrep, fmt.Sprintf("%s.%s %s %s", ft.name, col, op, prep))
	}
	var proj []string
	for _, ti := range perm {
		if g.r.Intn(2) == 0 {
			proj = append(proj, fc.tables[ti].name+"."+pick(g.r, []string{"V", "G", "ID"}))
		}
	}
	if len(proj) == 0 {
		proj = append(proj, fc.tables[perm[0]].name+".ID")
	}
	tail := ""
	if g.r.Intn(3) == 0 {
		tail = " ORDER BY " + fc.tables[perm[g.r.Intn(len(perm))]].name + ".V"
		if g.r.Intn(2) == 0 {
			tail += " DESC"
		}
		if g.r.Intn(2) == 0 {
			tail += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(15))
		}
	}
	head := "SELECT " + strings.Join(proj, ", ") + " FROM " + strings.Join(from, ", ") + " WHERE "
	return head + strings.Join(condsIn, " AND ") + tail,
		head + strings.Join(condsPrep, " AND ") + tail
}

// TestJoinOrderEquivalenceFuzz is the join-order property suite: on every
// generated multi-way join, the cost-based plan, the order-pinned
// (NoReorder) plan, the prepared cost-based plan and the naive reference
// must return identical rows — including row ORDER and propagated
// annotations, which is what proves restoreIter makes reordering invisible.
// The plansReordered canary then asserts the search actually changed some
// execution orders; without it the suite would pass trivially if the
// planner always kept the syntactic order.
func TestJoinOrderEquivalenceFuzz(t *testing.T) {
	seeds := []int64{21, 22, 23, 24}
	queriesPerSeed := 25
	if testing.Short() {
		seeds = seeds[:2]
		queriesPerSeed = 10
	}
	before := plansReordered.Load()
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("join-seed-%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			fc := genJoinCase(r)
			s := newSession(t)
			s.User = "admin"
			for _, stmt := range fc.setup {
				if _, err := s.Exec(stmt); err != nil {
					t.Fatalf("setup %q: %v", stmt, err)
				}
			}
			for q := 0; q < queriesPerSeed; q++ {
				g := &queryGen{r: r}
				inline, prepared := g.genJoinQuery(fc)

				s.NoOptimize = true
				naive, err := s.Exec(inline)
				s.NoOptimize = false
				if err != nil {
					t.Fatalf("seed %d query %d: naive %q: %v\nrepro script:\n%s",
						seed, q, inline, err, reproScript(fc, inline))
				}
				want := canonResult(naive)

				planned, err := s.Exec(inline)
				if err != nil {
					t.Fatalf("seed %d query %d: planned %q: %v\nrepro script:\n%s",
						seed, q, inline, err, reproScript(fc, inline))
				}
				if got := canonResult(planned); got != want {
					t.Fatalf("seed %d query %d: cost-based != naive\nquery: %s\n got: %s\nwant: %s\nrepro script:\n%s",
						seed, q, inline, got, want, reproScript(fc, inline))
				}

				s.NoReorder = true
				pinned, err := s.Exec(inline)
				s.NoReorder = false
				if err != nil {
					t.Fatalf("seed %d query %d: NoReorder planned %q: %v\nrepro script:\n%s",
						seed, q, inline, err, reproScript(fc, inline))
				}
				if got := canonResult(pinned); got != want {
					t.Fatalf("seed %d query %d: NoReorder != naive\nquery: %s\n got: %s\nwant: %s\nrepro script:\n%s",
						seed, q, inline, got, want, reproScript(fc, inline))
				}

				samePlanShape(t, s, fc, inline, prepared)
				stmt, err := s.Prepare(prepared)
				if err != nil {
					t.Fatalf("seed %d query %d: prepare %q: %v", seed, q, prepared, err)
				}
				for run := 0; run < 2; run++ { // second run hits the plan cache
					prepRes, err := stmt.Exec(g.args...)
					if err != nil {
						t.Fatalf("seed %d query %d run %d: prepared exec %q args %v: %v",
							seed, q, run, prepared, g.args, err)
					}
					if got := canonResult(prepRes); got != want {
						t.Fatalf("seed %d query %d run %d: prepared != naive\nquery: %s\nargs: %v\n got: %s\nwant: %s\nrepro script:\n%s",
							seed, q, run, prepared, g.args, got, want, reproScript(fc, prepared))
					}
				}
			}
		})
	}
	if plansReordered.Load() == before {
		t.Error("no generated join was reordered; the cost-based search is not changing any execution orders")
	}
}
