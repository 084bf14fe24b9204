package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/dependency"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// origin records which base-table row contributed to an intermediate row.
type origin struct {
	table string
	rowID int64
}

// execRow is an intermediate row flowing through the SELECT pipeline: the
// concatenated values of the FROM tables, per-value annotation sets, and the
// originating (table, RowID) pairs.
type execRow struct {
	values  value.Row
	anns    [][]*annotation.Annotation
	origins []origin
	// group holds the member rows when this row represents a GROUP BY group
	// built by the reference executor's groupRows.
	group []execRow
	// aggVals holds the pre-computed aggregate results when this row was
	// built by the streaming groupAggIter, which accumulates aggregates
	// incrementally instead of retaining group members. Expression
	// evaluation resolves AggregateExpr nodes from here when set.
	aggVals map[*sqlparse.AggregateExpr]value.Value
}

// binding describes one value slot of an execRow.
type binding struct {
	table  string // real table name
	alias  string
	column string
	colIdx int // ordinal within the source table
}

// planItem is one resolved projection item.
type planItem struct {
	star        bool
	name        string
	expr        sqlparse.Expr
	promote     []sqlparse.ColumnExpr
	sourceTable string
	sourceCol   int
}

// selectPlan carries the intermediate state of one SELECT evaluation in the
// reference executor.
type selectPlan struct {
	bindings []binding
	rows     []execRow
	items    []planItem
}

// execSelect evaluates an A-SQL SELECT with the reference executor and
// produces the final, fully materialized result.
func (s *Session) execSelect(ctx context.Context, st *sqlparse.SelectStmt, params value.Row) (*Result, error) {
	plan, err := s.buildSelect(ctx, st, params)
	if err != nil {
		return nil, err
	}
	cols, rows, err := s.project(st, plan, params)
	if err != nil {
		return nil, err
	}
	if st.Distinct {
		rows = dedupeRows(rows)
	}
	if st.SetOp != sqlparse.SetNone {
		rightRes, err := s.execSelect(ctx, st.SetRight, params)
		if err != nil {
			return nil, err
		}
		rows, err = applySetOp(st.SetOp, rows, rightRes.Rows)
		if err != nil {
			return nil, err
		}
	}
	if len(st.OrderBy) > 0 {
		// Ordering resolves output columns first, then (without DISTINCT or
		// a set operation, which discard the pre-projection rows) the FROM
		// bindings — the same plan the streaming sort operators use.
		outputOnly := st.Distinct || st.SetOp != sqlparse.SetNone
		keys, err := buildOrderPlan(st.OrderBy, cols, plan.bindings, outputOnly)
		if err != nil {
			return nil, err
		}
		keyRows := make([]value.Row, len(rows))
		for i := range rows {
			kr := make(value.Row, len(keys))
			for j, k := range keys {
				if k.outIdx >= 0 {
					kr[j] = rows[i].Values[k.outIdx]
				} else {
					// rows align 1:1 with the pre-projection plan rows here:
					// binding keys are rejected when DISTINCT or a set
					// operation changed the row set.
					kr[j] = plan.rows[i].values[k.slot]
				}
			}
			keyRows[i] = kr
		}
		perm := make([]int, len(rows))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			return compareKeyRows(keyRows[perm[a]], keyRows[perm[b]], keys) < 0
		})
		sorted := make([]ARow, len(rows))
		for i, p := range perm {
			sorted[i] = rows[p]
		}
		rows = sorted
	}
	if st.Limit >= 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

// buildSelect is the reference executor's FROM / WHERE / AWHERE / GROUP BY /
// HAVING / AHAVING / FILTER: every table loaded with its annotations, the
// full cross product materialized, then each clause applied to the whole row
// set in turn, leaving projection to execSelect. It shares no scan, join or
// grouping code with the planned pipeline — that independence is what makes
// it the oracle of the equivalence fuzzers — and only a Session.NoOptimize
// SELECT runs it.
func (s *Session) buildSelect(ctx context.Context, st *sqlparse.SelectStmt, params value.Row) (*selectPlan, error) {
	plan := &selectPlan{}

	// FROM: resolve sources and the global value-slot layout.
	for _, ref := range st.From {
		if err := s.require(ref.Table, authz.PrivSelect); err != nil {
			return nil, err
		}
	}
	sources, bindings, _, err := s.resolveSources(st.From)
	if err != nil {
		return nil, err
	}
	plan.bindings = bindings
	rows, err := s.buildRowsNaive(ctx, st, plan.bindings, sources, params)
	if err != nil {
		return nil, err
	}

	// AWHERE: a tuple passes when at least one of its annotations satisfies
	// the condition.
	if st.AWhere != nil {
		var kept []execRow
		for _, r := range rows {
			match, err := annRowMatches(st.AWhere, &r, params)
			if err != nil {
				return nil, err
			}
			if match {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// GROUP BY: combine member tuples into one row per group, unioning their
	// annotations (the paper's semantics for grouping operators).
	needsGrouping := len(st.GroupBy) > 0 || hasAggregate(st.Items) || st.Having != nil
	if needsGrouping {
		grouped, err := s.groupRows(st, plan.bindings, rows)
		if err != nil {
			return nil, err
		}
		rows = grouped
	}
	if st.Having != nil {
		var kept []execRow
		for _, r := range rows {
			ok, err := s.evalBool(st.Having, plan.bindings, r, r.group, params)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if st.AHaving != nil {
		var kept []execRow
		for _, r := range rows {
			match, err := annRowMatches(st.AHaving, &r, params)
			if err != nil {
				return nil, err
			}
			if match {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// FILTER: keep every tuple but drop annotations failing the condition.
	if st.Filter != nil {
		for i := range rows {
			if err := filterRowAnns(st.Filter, &rows[i], params); err != nil {
				return nil, err
			}
		}
	}

	plan.rows = rows
	plan.items = resolveItems(st, plan.bindings)
	return plan, nil
}

// resolveItems resolves the SELECT list against the binding layout. It is
// shared by the reference executor and the planned pipeline (planFor), so
// both project identically.
func resolveItems(st *sqlparse.SelectStmt, bindings []binding) []planItem {
	var items []planItem
	for _, item := range st.Items {
		pi := planItem{star: item.Star, expr: item.Expr, promote: item.Promote, name: item.Alias, sourceCol: -1}
		if col, ok := item.Expr.(*sqlparse.ColumnExpr); ok && !item.Star {
			if _, b, err := resolveColumn(bindings, col); err == nil {
				pi.sourceTable = b.table
				pi.sourceCol = b.colIdx
				if pi.name == "" {
					pi.name = b.column
				}
			}
		}
		if pi.name == "" && !item.Star {
			pi.name = exprName(item.Expr)
		}
		items = append(items, pi)
	}
	return items
}

// buildRowsNaive is the reference FROM/WHERE implementation: load every
// table with annotations attached eagerly, materialize the full cross
// product, then filter. The planner-driven pipeline must return exactly the
// same rows, annotations and ordering; the plan-equivalence tests compare
// the two paths.
func (s *Session) buildRowsNaive(ctx context.Context, st *sqlparse.SelectStmt, bindings []binding, sources []*sourcePlan, params value.Row) ([]execRow, error) {
	rows := []execRow{{}}
	for _, src := range sources {
		srcRows, err := s.loadTable(ctx, src.tbl, src.ref)
		if err != nil {
			return nil, err
		}
		var next []execRow
		for _, left := range rows {
			for _, right := range srcRows {
				combined := execRow{
					values:  append(append(value.Row{}, left.values...), right.values...),
					anns:    append(append([][]*annotation.Annotation{}, left.anns...), right.anns...),
					origins: append(append([]origin{}, left.origins...), right.origins...),
				}
				next = append(next, combined)
			}
		}
		rows = next
	}
	if len(sources) == 0 {
		rows = nil
	}
	if st.Where != nil {
		var kept []execRow
		for _, r := range rows {
			ok, err := s.evalBool(st.Where, bindings, r, nil, params)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	return rows, nil
}

// loadTable scans a table into execRows, attaching the requested annotations
// and any outdated marks from the dependency manager. A canceled context
// aborts the scan.
func (s *Session) loadTable(ctx context.Context, tbl *storage.Table, ref sqlparse.TableRef) ([]execRow, error) {
	wantAnnotations := len(ref.Annotations) > 0
	filter := annotation.Filter{}
	if wantAnnotations && ref.Annotations[0] != "*" {
		filter.AnnTables = ref.Annotations
	}
	numCols := len(tbl.Schema().Columns)
	// Fetch the outdated bitmap once per scan (not once per cell) and skip
	// the per-cell probing entirely when the table has no tracked
	// dependencies.
	var bm *dependency.Bitmap
	if s.Dep != nil {
		if b := s.Dep.Bitmap(tbl.Name()); b.Any() {
			bm = b
		}
	}
	var out []execRow
	ctxErr := error(nil)
	err := tbl.Scan(func(rowID int64, row value.Row) bool {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			return false
		}
		r := execRow{
			values:  row.Clone(),
			anns:    make([][]*annotation.Annotation, numCols),
			origins: []origin{{table: tbl.Name(), rowID: rowID}},
		}
		if wantAnnotations {
			for c := 0; c < numCols; c++ {
				r.anns[c] = s.Ann.ForCell(tbl.Name(), rowID, c, filter)
			}
		}
		if bm != nil && bm.RowOutdated(rowID) {
			for c := 0; c < numCols; c++ {
				if bm.IsSet(rowID, c) {
					r.anns[c] = append(r.anns[c], &annotation.Annotation{
						AnnTable:  OutdatedAnnTable,
						UserTable: tbl.Name(),
						Author:    "system:dependency-tracker",
						Body: fmt.Sprintf("<Annotation>OUTDATED: %s.%s of row %d needs re-verification</Annotation>",
							tbl.Name(), tbl.Schema().Columns[c].Name, rowID),
						Regions: []annotation.Region{annotation.CellRegion(tbl.Name(), rowID, c)},
					})
				}
			}
		}
		out = append(out, r)
		return true
	})
	if err == nil {
		err = ctxErr
	}
	return out, err
}

// groupRows groups rows by the GROUP BY columns (or into a single group when
// none are given), unioning annotations column-wise across group members.
func (s *Session) groupRows(st *sqlparse.SelectStmt, bindings []binding, rows []execRow) ([]execRow, error) {
	var keyIdx []int
	for _, col := range st.GroupBy {
		idx, _, err := resolveColumn(bindings, &col)
		if err != nil {
			return nil, err
		}
		keyIdx = append(keyIdx, idx)
	}
	groups := map[string]*execRow{}
	var order []string
	for _, r := range rows {
		var keyParts []string
		for _, idx := range keyIdx {
			keyParts = append(keyParts, r.values[idx].String())
		}
		key := strings.Join(keyParts, "\x00")
		g, ok := groups[key]
		if !ok {
			copyRow := execRow{
				values:  r.values.Clone(),
				anns:    make([][]*annotation.Annotation, len(r.anns)),
				origins: append([]origin{}, r.origins...),
			}
			for c := range r.anns {
				copyRow.anns[c] = append([]*annotation.Annotation{}, r.anns[c]...)
			}
			g = &copyRow
			groups[key] = g
			order = append(order, key)
		} else {
			for c := range r.anns {
				g.anns[c] = unionAnnotations(g.anns[c], r.anns[c])
			}
			g.origins = append(g.origins, r.origins...)
		}
		g.group = append(g.group, r)
	}
	var out []execRow
	for _, key := range order {
		out = append(out, *groups[key])
	}
	return out, nil
}

// outCol is one output column of a projector: a star-expanded value slot
// (index >= 0) or a projected expression item (index == -1).
type outCol struct {
	item  *planItem
	index int
}

// projector turns pipeline rows into result rows. The column layout is
// resolved once at construction, so projecting a row is allocation-lean —
// the streaming cursor projects one row per Next call with it.
type projector struct {
	s        *Session
	cols     []string
	outCols  []outCol
	bindings []binding
	params   value.Row
}

// newProjector resolves the projection layout (including PROMOTE and *) of
// the given items against the binding list.
func newProjector(s *Session, items []planItem, bindings []binding, params value.Row) *projector {
	p := &projector{s: s, bindings: bindings, params: params}
	for i := range items {
		item := &items[i]
		if item.star {
			for idx, b := range bindings {
				p.cols = append(p.cols, b.column)
				p.outCols = append(p.outCols, outCol{item: item, index: idx})
			}
			continue
		}
		p.cols = append(p.cols, item.name)
		p.outCols = append(p.outCols, outCol{item: item, index: -1})
	}
	return p
}

// row projects one pipeline row into a result row.
func (p *projector) row(r execRow) (ARow, error) {
	out := ARow{
		Values: make(value.Row, 0, len(p.outCols)),
		Anns:   make([][]*annotation.Annotation, 0, len(p.outCols)),
	}
	for _, oc := range p.outCols {
		if oc.index >= 0 { // star expansion: direct value copy
			out.Values = append(out.Values, r.values[oc.index])
			out.Anns = append(out.Anns, append([]*annotation.Annotation{}, r.anns[oc.index]...))
			continue
		}
		v, err := p.s.evalValue(oc.item.expr, p.bindings, r, r.group, p.params)
		if err != nil {
			return ARow{}, err
		}
		out.Values = append(out.Values, v)
		// Annotation propagation: a projected column keeps the annotations
		// of its source cell; PROMOTE copies annotations from other columns.
		var anns []*annotation.Annotation
		if col, ok := oc.item.expr.(*sqlparse.ColumnExpr); ok {
			if idx, _, err := resolveColumn(p.bindings, col); err == nil {
				anns = append(anns, r.anns[idx]...)
			}
		}
		for _, pcol := range oc.item.promote {
			if idx, _, err := resolveColumn(p.bindings, &pcol); err == nil {
				anns = unionAnnotations(anns, r.anns[idx])
			}
		}
		out.Anns = append(out.Anns, anns)
	}
	return out, nil
}

// project applies the projection items (including PROMOTE and *) and returns
// the output column names and rows.
func (s *Session) project(st *sqlparse.SelectStmt, plan *selectPlan, params value.Row) ([]string, []ARow, error) {
	proj := newProjector(s, plan.items, plan.bindings, params)
	var rows []ARow
	for _, r := range plan.rows {
		out, err := proj.row(r)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, out)
	}
	return proj.cols, rows, nil
}

// --- set operations, distinct, order -----------------------------------------------------

// appendRowKey appends a distinctness key for the row to buf and returns the
// extended buffer. Callers reuse one buffer across rows so keying a row costs
// a single string allocation (the map key) instead of a string per cell plus
// a join.
func appendRowKey(buf []byte, r ARow) []byte {
	for i, v := range r.Values {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, v.Type().String()...)
		buf = append(buf, ':')
		buf = append(buf, v.String()...)
	}
	return buf
}

func rowKey(r ARow) string {
	return string(appendRowKey(nil, r))
}

func dedupeRows(rows []ARow) []ARow {
	seen := make(map[string]int, len(rows))
	var out []ARow
	var buf []byte
	for _, r := range rows {
		buf = appendRowKey(buf[:0], r)
		key := string(buf)
		if idx, ok := seen[key]; ok {
			// Duplicate elimination unions the annotations of the combined
			// tuples (Section 3.4).
			for c := range out[idx].Anns {
				if c < len(r.Anns) {
					out[idx].Anns[c] = unionAnnotations(out[idx].Anns[c], r.Anns[c])
				}
			}
			continue
		}
		seen[key] = len(out)
		out = append(out, r)
	}
	return out
}

func applySetOp(op sqlparse.SetOp, left, right []ARow) ([]ARow, error) {
	if len(left) > 0 && len(right) > 0 && len(left[0].Values) != len(right[0].Values) {
		return nil, fmt.Errorf("%w: set operands have different column counts", ErrUnsupported)
	}
	rightByKey := make(map[string][]ARow, len(right))
	var buf []byte
	for _, r := range right {
		buf = appendRowKey(buf[:0], r)
		key := string(buf)
		rightByKey[key] = append(rightByKey[key], r)
	}
	switch op {
	case sqlparse.SetIntersect:
		var out []ARow
		seen := map[string]bool{}
		for _, l := range left {
			key := rowKey(l)
			if seen[key] {
				continue
			}
			matches, ok := rightByKey[key]
			if !ok {
				continue
			}
			seen[key] = true
			merged := l
			for _, m := range matches {
				for c := range merged.Anns {
					if c < len(m.Anns) {
						merged.Anns[c] = unionAnnotations(merged.Anns[c], m.Anns[c])
					}
				}
			}
			out = append(out, merged)
		}
		return out, nil
	case sqlparse.SetUnion:
		return dedupeRows(append(append([]ARow{}, left...), right...)), nil
	case sqlparse.SetExcept:
		var out []ARow
		seen := map[string]bool{}
		for _, l := range left {
			key := rowKey(l)
			if _, inRight := rightByKey[key]; inRight || seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, l)
		}
		return out, nil
	default:
		return left, nil
	}
}

// --- expression evaluation ---------------------------------------------------------------

// resolveColumn finds the value index and binding of a column reference.
func resolveColumn(bindings []binding, col *sqlparse.ColumnExpr) (int, binding, error) {
	matches := -1
	var matched binding
	count := 0
	for i, b := range bindings {
		if !strings.EqualFold(b.column, col.Column) {
			continue
		}
		if col.Table != "" && !strings.EqualFold(col.Table, b.alias) && !strings.EqualFold(col.Table, b.table) {
			continue
		}
		matches = i
		matched = b
		count++
		if col.Table != "" {
			// Qualified references are unambiguous once matched.
			return matches, matched, nil
		}
	}
	if count == 0 {
		return 0, binding{}, fmt.Errorf("%w: %s", ErrUnknownColumn, col.Column)
	}
	if count > 1 {
		return 0, binding{}, fmt.Errorf("%w: %s", ErrAmbiguousColumn, col.Column)
	}
	return matches, matched, nil
}

func exprName(e sqlparse.Expr) string {
	switch ex := e.(type) {
	case *sqlparse.ColumnExpr:
		return ex.Column
	case *sqlparse.AggregateExpr:
		if ex.Star {
			return strings.ToLower(ex.Func) + "_all"
		}
		return strings.ToLower(ex.Func) + "_" + ex.Column.Column
	default:
		return "expr"
	}
}

func hasAggregate(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if _, ok := it.Expr.(*sqlparse.AggregateExpr); ok {
			return true
		}
	}
	return false
}

// evalValue evaluates an expression over an execRow (with optional group
// members for aggregates).
func (s *Session) evalValue(e sqlparse.Expr, bindings []binding, r execRow, group []execRow, params value.Row) (value.Value, error) {
	colFn := func(col *sqlparse.ColumnExpr) (value.Value, error) {
		idx, _, err := resolveColumn(bindings, col)
		if err != nil {
			return value.Value{}, err
		}
		return r.values[idx], nil
	}
	aggFn := func(agg *sqlparse.AggregateExpr) (value.Value, error) {
		if r.aggVals != nil {
			v, ok := r.aggVals[agg]
			if !ok {
				return value.Value{}, fmt.Errorf("%w: internal: unregistered aggregate %s", ErrUnsupported, agg.Func)
			}
			return v, nil
		}
		members := group
		if members == nil {
			members = []execRow{r}
		}
		return evalAggregate(agg, bindings, members)
	}
	return evalExpr(e, colFn, aggFn, params)
}

func (s *Session) evalBool(e sqlparse.Expr, bindings []binding, r execRow, group []execRow, params value.Row) (bool, error) {
	v, err := s.evalValue(e, bindings, r, group, params)
	if err != nil {
		return false, err
	}
	return v.Type() == value.Bool && v.Bool(), nil
}

func evalAggregate(agg *sqlparse.AggregateExpr, bindings []binding, members []execRow) (value.Value, error) {
	if agg.Star {
		if agg.Func != "COUNT" {
			return value.Value{}, fmt.Errorf("%w: %s(*)", ErrUnsupported, agg.Func)
		}
		return value.NewInt(int64(len(members))), nil
	}
	idx, _, err := resolveColumn(bindings, agg.Column)
	if err != nil {
		return value.Value{}, err
	}
	// The reference executor folds through the same aggState accumulator the
	// streaming grouped path uses, so the two (and the spill codec between
	// them) share one implementation of aggregate semantics — including the
	// exact-int64 SUM/AVG path with overflow promotion to float.
	var kind aggKind
	switch agg.Func {
	case "COUNT":
		kind = aggCount
	case "SUM":
		kind = aggSum
	case "AVG":
		kind = aggAvg
	case "MIN":
		kind = aggMin
	case "MAX":
		kind = aggMax
	default:
		return value.Value{}, fmt.Errorf("%w: aggregate %s", ErrUnsupported, agg.Func)
	}
	var a aggState
	for _, m := range members {
		if err := a.update(kind, m.values[idx]); err != nil {
			return value.Value{}, err
		}
	}
	return a.final(kind), nil
}

type colResolver func(*sqlparse.ColumnExpr) (value.Value, error)
type aggResolver func(*sqlparse.AggregateExpr) (value.Value, error)

// evalExpr evaluates an expression with the given column and aggregate
// resolvers. params carry the bound placeholder arguments; a `?` marker
// resolves to params[index].
func evalExpr(e sqlparse.Expr, col colResolver, agg aggResolver, params value.Row) (value.Value, error) {
	switch ex := e.(type) {
	case *sqlparse.LiteralExpr:
		return ex.Value, nil
	case *sqlparse.PlaceholderExpr:
		if ex.Index < 0 || ex.Index >= len(params) {
			return value.Value{}, fmt.Errorf("%w: placeholder ?%d evaluated with %d bound argument(s)",
				ErrBadArgs, ex.Index+1, len(params))
		}
		return params[ex.Index], nil
	case *sqlparse.ColumnExpr:
		return col(ex)
	case *sqlparse.AggregateExpr:
		if agg == nil {
			return value.Value{}, fmt.Errorf("%w: aggregate outside grouping context", ErrUnsupported)
		}
		return agg(ex)
	case *sqlparse.UnaryExpr:
		v, err := evalExpr(ex.Expr, col, agg, params)
		if err != nil {
			return value.Value{}, err
		}
		switch ex.Op {
		case "NOT":
			return value.NewBool(!(v.Type() == value.Bool && v.Bool())), nil
		case "-":
			if v.Type() == value.Int {
				return value.NewInt(-v.Int()), nil
			}
			return value.NewFloat(-v.Float()), nil
		default:
			return value.Value{}, fmt.Errorf("%w: unary %s", ErrUnsupported, ex.Op)
		}
	case *sqlparse.IsNullExpr:
		v, err := evalExpr(ex.Expr, col, agg, params)
		if err != nil {
			return value.Value{}, err
		}
		isNull := v.IsNull()
		if ex.Negate {
			isNull = !isNull
		}
		return value.NewBool(isNull), nil
	case *sqlparse.BinaryExpr:
		return evalBinary(ex, col, agg, params)
	default:
		return value.Value{}, fmt.Errorf("%w: expression %T", ErrUnsupported, e)
	}
}

func evalBinary(ex *sqlparse.BinaryExpr, col colResolver, agg aggResolver, params value.Row) (value.Value, error) {
	left, err := evalExpr(ex.Left, col, agg, params)
	if err != nil {
		return value.Value{}, err
	}
	// Short-circuit boolean operators.
	switch ex.Op {
	case "AND":
		if !(left.Type() == value.Bool && left.Bool()) {
			return value.NewBool(false), nil
		}
		right, err := evalExpr(ex.Right, col, agg, params)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(right.Type() == value.Bool && right.Bool()), nil
	case "OR":
		if left.Type() == value.Bool && left.Bool() {
			return value.NewBool(true), nil
		}
		right, err := evalExpr(ex.Right, col, agg, params)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(right.Type() == value.Bool && right.Bool()), nil
	}
	right, err := evalExpr(ex.Right, col, agg, params)
	if err != nil {
		return value.Value{}, err
	}
	switch ex.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if left.IsNull() || right.IsNull() {
			return value.NewBool(false), nil
		}
		c, err := left.Compare(right)
		if err != nil {
			return value.Value{}, err
		}
		var ok bool
		switch ex.Op {
		case "=":
			ok = c == 0
		case "<>":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		}
		return value.NewBool(ok), nil
	case "LIKE":
		return value.NewBool(likeMatch(right.Text(), left.String())), nil
	case "+", "-", "*", "/":
		if left.IsNull() || right.IsNull() {
			return value.NewNull(), nil
		}
		lf, rf := left.Float(), right.Float()
		var res float64
		switch ex.Op {
		case "+":
			res = lf + rf
		case "-":
			res = lf - rf
		case "*":
			res = lf * rf
		case "/":
			if rf == 0 {
				return value.NewNull(), nil
			}
			res = lf / rf
		}
		if left.Type() == value.Int && right.Type() == value.Int && ex.Op != "/" {
			return value.NewInt(int64(res)), nil
		}
		return value.NewFloat(res), nil
	default:
		return value.Value{}, fmt.Errorf("%w: operator %s", ErrUnsupported, ex.Op)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single character).
func likeMatch(pattern, s string) bool {
	return likeMatchAt(pattern, s, 0, 0)
}

func likeMatchAt(p, s string, pi, si int) bool {
	for pi < len(p) {
		switch p[pi] {
		case '%':
			// Collapse consecutive %.
			for pi < len(p) && p[pi] == '%' {
				pi++
			}
			if pi == len(p) {
				return true
			}
			for k := si; k <= len(s); k++ {
				if likeMatchAt(p, s, pi, k) {
					return true
				}
			}
			return false
		case '_':
			if si >= len(s) {
				return false
			}
			pi++
			si++
		default:
			if si >= len(s) || s[si] != p[pi] {
				return false
			}
			pi++
			si++
		}
	}
	return si == len(s)
}

// evalAnnBool evaluates an AWHERE / AHAVING / FILTER condition against one
// annotation. The pseudo-columns ANN.VALUE, ANN.TABLE, ANN.AUTHOR and
// ANN.ARCHIVED resolve to the annotation's fields.
func evalAnnBool(e sqlparse.Expr, a *annotation.Annotation, params value.Row) (bool, error) {
	colFn := func(col *sqlparse.ColumnExpr) (value.Value, error) {
		name := strings.ToUpper(col.Column)
		if col.Table != "" && !strings.EqualFold(col.Table, "ANN") {
			return value.Value{}, fmt.Errorf("%w: %s.%s in annotation condition", ErrUnknownColumn, col.Table, col.Column)
		}
		switch name {
		case "VALUE", "BODY":
			return value.NewText(a.PlainBody()), nil
		case "TABLE", "ANNTABLE":
			return value.NewText(a.AnnTable), nil
		case "AUTHOR":
			return value.NewText(a.Author), nil
		case "ARCHIVED":
			return value.NewBool(a.Archived), nil
		case "CREATED":
			return value.NewTimestamp(a.CreatedAt), nil
		default:
			return value.Value{}, fmt.Errorf("%w: annotation attribute %s", ErrUnknownColumn, col.Column)
		}
	}
	v, err := evalExpr(e, colFn, nil, params)
	if err != nil {
		return false, err
	}
	return v.Type() == value.Bool && v.Bool(), nil
}

func unionAnnotations(a, b []*annotation.Annotation) []*annotation.Annotation {
	seen := map[int64]bool{}
	var out []*annotation.Annotation
	appendAll := func(list []*annotation.Annotation) {
		for _, ann := range list {
			// Synthetic annotations (outdated marks) have ID 0; keep them all.
			if ann.ID != 0 && seen[ann.ID] {
				continue
			}
			if ann.ID != 0 {
				seen[ann.ID] = true
			}
			out = append(out, ann)
		}
	}
	appendAll(a)
	appendAll(b)
	return out
}
