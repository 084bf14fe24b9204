package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"bdbms/internal/annotation"
	"bdbms/internal/dependency"
	"bdbms/internal/sqlparse"
	"bdbms/internal/stats"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// This file is the query planner in front of the streaming executor. It
// decomposes the WHERE clause into AND-conjuncts and decides, per conjunct,
// where in the pipeline it runs:
//
//   - single-table conjuncts are pushed below the join into the table scan;
//     when such a conjunct compares an indexed column (primary key or CREATE
//     INDEX column) with a column-free operand — a literal, a `?`, or an
//     expression over them — the scan probes the B+-tree instead of walking
//     the heap;
//   - equality conjuncts between columns of two different tables become the
//     keys of a hash equi-join; sources with no connecting equality fall
//     back to a block nested-loop cross join;
//   - everything else (conjuncts spanning several tables, aggregates,
//     unresolvable references) is evaluated as a residual filter above the
//     join it depends on.
//
// Pushed predicates that drive an index probe are re-applied as scan filters:
// the probe only needs to produce a superset of the matching RowIDs, which
// keeps the bound arithmetic below simple and safe.
//
// Result equivalence with the naive executor holds for every query that
// evaluates without error. Error behavior on ill-typed queries can differ:
// pushing a conjunct changes which rows it is evaluated against, so a
// type-mismatch error may surface from a planned scan where the naive
// cross product happened to be empty (and a residual conjunct's resolution
// error may be suppressed when no rows survive the join). This is the
// standard pushdown tradeoff; SQL leaves predicate evaluation order
// unspecified.

var errUnresolvedSlot = errors.New("exec: internal: unresolved predicate slot")

// compareClass groups value types that Compare treats as one domain.
type compareClass int

const (
	classOther compareClass = iota
	classNumeric
	classString
	classBool
	classTime
)

func classOf(t value.Type) compareClass {
	switch t {
	case value.Int, value.Float:
		return classNumeric
	case value.Text, value.Sequence:
		return classString
	case value.Bool:
		return classBool
	case value.Timestamp:
		return classTime
	default:
		return classOther
	}
}

// probeBound is one pushed conjunct `column op operand` that bounds an index
// probe. A placeholder-free operand is folded when the statement is planned:
// val is its value in the column's key space and exact whether that
// conversion preserved the comparison (see indexProbeValue). Any other
// operand stays in expr and is evaluated from the bound parameters each time
// the pipeline is built.
type probeBound struct {
	op    string // "=", "<", "<=", ">" or ">=", column on the left
	val   value.Value
	exact bool
	expr  sqlparse.Expr // nil once folded
}

// accessPath is how a source's RowIDs are produced: a full scan when column
// is empty, otherwise one B+-tree probe on that column delimited by bounds.
// It is part of a plan that concurrent executions share, so binding (bind)
// reads it and never writes it.
type accessPath struct {
	column  string
	colType value.Type
	bounds  []probeBound
}

func (a *accessPath) fullScan() bool { return a.column == "" }

// sourcePlan is one FROM entry with its pushed predicates and access path.
type sourcePlan struct {
	ref     sqlparse.TableRef
	tbl     *storage.Table
	offset  int // first global value slot of this source
	numCols int
	access  accessPath
	preds   []compiledPred // single-table conjuncts, applied inside the scan
}

// joinStep combines the accumulated left prefix with one more source.
type joinStep struct {
	right    *sourcePlan
	leftKey  []joinKeyCol   // global slots into the left prefix row
	rightKey []joinKeyCol   // local slots into the right source row
	post     []compiledPred // multi-source conjuncts completed by this join
}

// physicalPlan is the planned FROM/WHERE pipeline of one SELECT.
type physicalPlan struct {
	sources []*sourcePlan
	steps   []joinStep // len(sources)-1 entries, in EXECUTION order
	// residual holds WHERE parts the pipeline could not place (aggregates,
	// unresolvable columns); they are evaluated naively on the final rows.
	residual []sqlparse.Expr
	// order is the execution order of the sources (indexes into sources);
	// the identity is syntactic execution. steps are compiled against this
	// order, with prefix-side slots in the execution layout.
	order []int
	// reordered reports that order differs from the syntactic FROM order;
	// the pipeline then restores the syntactic column layout and row order
	// above the joins (restoreIter), so every downstream stage — residual
	// filters, decoration, projection, ordering — is oblivious.
	reordered bool
	// srcRows, stepRows and estRows are the cost model's cardinality
	// estimates: per source (syntactic index), after each execution step,
	// and out of the whole join pipeline. tstats holds the table statistics
	// each source was estimated from, nil for a source planned without.
	// EXPLAIN renders all of them.
	srcRows  []float64
	stepRows []float64
	estRows  float64
	tstats   []*stats.Table
}

// identityOrder is the syntactic execution order of n sources.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// String renders the plan shape in execution order for tests and debugging,
// e.g. "IndexScan(gene.gid =) -> HashJoin(protein) -> Filter".
func (p *physicalPlan) String() string {
	var b strings.Builder
	for i, si := range p.order {
		src := p.sources[si]
		if i > 0 {
			step := p.steps[i-1]
			if len(step.leftKey) > 0 {
				fmt.Fprintf(&b, " -> HashJoin(%s", src.tbl.Name())
			} else {
				fmt.Fprintf(&b, " -> NestedLoop(%s", src.tbl.Name())
			}
			b.WriteString(describeScan(src))
			b.WriteString(")")
			if len(step.post) > 0 {
				b.WriteString(" -> Filter")
			}
			continue
		}
		b.WriteString(scanDesc(src))
		if len(src.preds) > 0 {
			b.WriteString(" -> Filter")
		}
	}
	if p.reordered {
		b.WriteString(" -> Restore")
	}
	if len(p.residual) > 0 {
		b.WriteString(" -> Residual")
	}
	return b.String()
}

// scanDesc renders a source's access path: "SeqScan(T)", or
// "IndexScan(T.Col =)" / "IndexScan(T.Col range)" with " ?" appended when a
// bound takes its value from the statement's arguments.
func scanDesc(src *sourcePlan) string {
	a := &src.access
	if a.fullScan() {
		return fmt.Sprintf("SeqScan(%s)", src.tbl.Name())
	}
	kind := "range"
	if a.bounds[0].op == "=" {
		kind = "="
	}
	for _, b := range a.bounds {
		if b.expr != nil {
			kind += " ?"
			break
		}
	}
	return fmt.Sprintf("IndexScan(%s.%s %s)", src.tbl.Name(), a.column, kind)
}

// describeScan renders the access path of a joined source, which is named by
// its join operator: nothing for a full scan, " via IndexScan(...)" otherwise.
func describeScan(src *sourcePlan) string {
	if src.access.fullScan() {
		return ""
	}
	return " via " + scanDesc(src)
}

// --- conjunct analysis ---------------------------------------------------------------------

// splitAnd flattens top-level ANDs into conjuncts.
func splitAnd(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if bin, ok := e.(*sqlparse.BinaryExpr); ok && bin.Op == "AND" {
		return splitAnd(bin.Right, splitAnd(bin.Left, out))
	}
	return append(out, e)
}

// walkColumns visits every ColumnExpr in e. It returns false if e contains an
// aggregate (which cannot be pushed below grouping).
func walkColumns(e sqlparse.Expr, fn func(*sqlparse.ColumnExpr)) bool {
	switch ex := e.(type) {
	case nil:
		return true
	case *sqlparse.ColumnExpr:
		fn(ex)
		return true
	case *sqlparse.LiteralExpr:
		return true
	case *sqlparse.UnaryExpr:
		return walkColumns(ex.Expr, fn)
	case *sqlparse.IsNullExpr:
		return walkColumns(ex.Expr, fn)
	case *sqlparse.BinaryExpr:
		return walkColumns(ex.Left, fn) && walkColumns(ex.Right, fn)
	case *sqlparse.PlaceholderExpr:
		// A placeholder references no columns; the value is bound at
		// execution time, so the conjunct stays pushable.
		return true
	case *sqlparse.AggregateExpr:
		return false
	default:
		return false
	}
}

// analyzedConjunct is one WHERE conjunct with resolved column slots.
type analyzedConjunct struct {
	expr  sqlparse.Expr
	slots colSlots
	// minSrc and maxSrc bound the source indexes the conjunct references;
	// they are equal for a single-source conjunct (both 0 for a constant
	// one, which is pushed into the first scan).
	minSrc, maxSrc int
}

// analyzeConjunct resolves the conjunct's columns against the full binding
// list. ok is false when the conjunct cannot be planned (aggregate or
// resolution failure) and must run as a naive residual.
func analyzeConjunct(e sqlparse.Expr, bindings []binding, slotSource []int) (analyzedConjunct, bool) {
	ac := analyzedConjunct{expr: e}
	resolved := true
	pure := walkColumns(e, func(col *sqlparse.ColumnExpr) {
		idx, _, err := resolveColumn(bindings, col)
		if err != nil {
			resolved = false
			return
		}
		src := slotSource[idx]
		if len(ac.slots) == 0 || src < ac.minSrc {
			ac.minSrc = src
		}
		if src > ac.maxSrc {
			ac.maxSrc = src
		}
		ac.slots = append(ac.slots, colSlot{col: col, slot: idx})
	})
	return ac, pure && resolved
}

// constOperand reports whether e references no columns or aggregates (it may
// contain placeholders): the operand of a comparison an index probe can serve.
func constOperand(e sqlparse.Expr) bool {
	hasCol := false
	pure := walkColumns(e, func(*sqlparse.ColumnExpr) { hasCol = true })
	return pure && !hasCol
}

// containsPlaceholder reports whether any `?` marker appears in e.
func containsPlaceholder(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExpr(e, func(sub sqlparse.Expr) {
		if _, ok := sub.(*sqlparse.PlaceholderExpr); ok {
			found = true
		}
	})
	return found
}

// flipped maps each comparison an index probe can serve to the comparison
// that holds with its operands swapped.
var flipped = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// comparisonParts matches `col op const` / `const op col` and returns the
// column, the constant expression (columns- and aggregate-free, possibly
// containing placeholders) and the op normalized to put the column on the
// left.
func comparisonParts(e sqlparse.Expr) (*sqlparse.ColumnExpr, sqlparse.Expr, string, bool) {
	bin, ok := e.(*sqlparse.BinaryExpr)
	if !ok || flipped[bin.Op] == "" {
		return nil, nil, "", false
	}
	if col, ok := bin.Left.(*sqlparse.ColumnExpr); ok && constOperand(bin.Right) {
		return col, bin.Right, bin.Op, true
	}
	if col, ok := bin.Right.(*sqlparse.ColumnExpr); ok && constOperand(bin.Left) {
		return col, bin.Left, flipped[bin.Op], true
	}
	return nil, nil, "", false
}

// indexProbeValue converts a constant comparison operand to the indexed
// column's type so its EncodeKey form matches the stored keys. exact reports
// whether the conversion preserves the comparison (when false, the caller
// must widen range bounds to inclusive; equality stays correct because the
// original predicate is re-applied above the probe). usable is false when no
// index probe can be derived at all.
func indexProbeValue(colType value.Type, v value.Value) (probe value.Value, exact, usable bool) {
	if v.IsNull() {
		return value.Value{}, false, false
	}
	if v.Type() == colType {
		return v, true, true
	}
	switch classOf(colType) {
	case classNumeric:
		if classOf(v.Type()) != classNumeric {
			return value.Value{}, false, false
		}
		if colType == value.Float {
			// Compare evaluates both sides as float64, so the cast IS the
			// comparison semantics.
			return value.NewFloat(v.Float()), true, true
		}
		// INT column, FLOAT constant: probe the nearest integers on either
		// side; bounds become inclusive supersets unless f is integral.
		f := v.Float()
		if f > math.MaxInt64/2 || f < math.MinInt64/2 {
			return value.Value{}, false, false
		}
		return value.NewInt(int64(math.Floor(f))), f == math.Trunc(f), true
	case classString:
		if classOf(v.Type()) != classString {
			return value.Value{}, false, false
		}
		if colType == value.Sequence {
			return value.NewSequence(v.Text()), true, true
		}
		return value.NewText(v.Text()), true, true
	default:
		// Bool/Timestamp probes require the exact type, handled above.
		return value.Value{}, false, false
	}
}

// --- planning ------------------------------------------------------------------------------

// pushDown is the placement half of planning, shared by every statement
// that names rows with a predicate: it splits WHERE into conjuncts, pushes
// the single-source ones into their scans and picks each source's access
// path, filling plan. The multi-source conjuncts come back for the join
// planner; whatever cannot be compiled stays on the plan as a residual.
// bindings and slotSource describe the global value-slot layout
// (slotSource[i] = source index of slot i). A single-source plan is
// executable once pushDown returns — nothing in it is chosen by cost — which
// is how a mutation plans its read phase under its table's write latch
// without touching the statistics (Table.Stats may rebuild them with a heap
// scan).
func (s *Session) pushDown(plan *physicalPlan, where sqlparse.Expr, sources []*sourcePlan, bindings []binding, slotSource []int) []analyzedConjunct {
	plan.sources, plan.order = sources, identityOrder(len(sources))
	var multi []analyzedConjunct
	if where != nil {
		for _, e := range splitAnd(where, nil) {
			ac, ok := analyzeConjunct(e, bindings, slotSource)
			switch {
			case !ok:
				plan.residual = append(plan.residual, e)
			case ac.minSrc == ac.maxSrc:
				src := sources[ac.maxSrc]
				src.preds = append(src.preds, compiledPred{expr: ac.expr, slots: ac.slots})
			default:
				multi = append(multi, ac)
			}
		}
	}
	for _, src := range sources {
		s.chooseAccessPath(src)
	}
	return multi
}

// planSelect builds the physical FROM/WHERE plan of a SELECT: pushDown, then
// the cost model's estimates, join order and join steps.
func (s *Session) planSelect(plan *physicalPlan, st *sqlparse.SelectStmt, sources []*sourcePlan, bindings []binding, slotSource []int) {
	if len(sources) == 0 {
		// FROM is mandatory in the grammar; a programmatically built
		// statement with no sources yields no rows, so WHERE is moot.
		return
	}
	multi := s.pushDown(plan, st.Where, sources, bindings, slotSource)

	// Estimate per-source cardinalities from the table statistics and choose
	// the join order by cost (cost.go); the syntactic order is kept unless a
	// candidate is strictly cheaper, and Session.NoReorder pins it
	// unconditionally. The chosen order's steps are compiled with their
	// prefix-side slots in the execution row layout.
	m := s.newCostModel(sources, slotSource)
	plan.srcRows, plan.tstats = m.est, m.tstats
	if !s.NoReorder && len(sources) > 1 {
		plan.order = m.chooseOrder(multi)
	}
	for i, si := range plan.order {
		if si != i {
			plan.reordered = true
			plansReordered.Add(1)
			break
		}
	}
	plan.steps, plan.stepRows, plan.estRows = m.buildSteps(plan.order, multi, !s.NoReorder)
}

// chooseAccessPath picks the source's index probe from its pushed predicates,
// in conjunct order: the first equality on an indexed column is the probe;
// failing that, every range conjunct on the first indexed range column bounds
// it. Whether an operand is a literal or takes its value from a `?` makes no
// difference to the choice. A placeholder-free operand is folded here, and
// one that cannot be evaluated or converted to the column's key space is no
// candidate. The chosen conjuncts stay in src.preds, so the probe only ever
// has to produce a superset of the matching rows.
func (s *Session) chooseAccessPath(src *sourcePlan) {
	schema := src.tbl.Schema()
	var ranged accessPath
	for _, p := range src.preds {
		col, operand, op, ok := comparisonParts(p.expr)
		if !ok || !src.tbl.HasIndex(col.Column) {
			continue
		}
		colType := schema.Columns[schema.ColumnIndex(col.Column)].Type
		b := probeBound{op: op, expr: operand}
		if !containsPlaceholder(operand) {
			cv, err := s.evalConst(operand, nil)
			if err != nil {
				continue
			}
			var usable bool
			if b.val, b.exact, usable = indexProbeValue(colType, cv); !usable {
				continue
			}
			b.expr = nil
		}
		if op == "=" {
			src.access = accessPath{column: col.Column, colType: colType, bounds: []probeBound{b}}
			return
		}
		if ranged.fullScan() {
			ranged = accessPath{column: col.Column, colType: colType}
		}
		if col.Column == ranged.column {
			ranged.bounds = append(ranged.bounds, b)
		}
	}
	src.access = ranged
}

// keyRange is an access path's bounds resolved for one execution: the key
// interval the probe reads. A NULL end is unbounded.
type keyRange struct {
	lo, hi             value.Value
	loStrict, hiStrict bool
}

// point reports whether the interval is the single key lo.
func (r *keyRange) point() bool {
	if r.loStrict || r.hiStrict || r.lo.IsNull() || r.hi.IsNull() {
		return false
	}
	c, err := r.lo.Compare(r.hi)
	return err == nil && c == 0
}

// bind resolves the bounds against one execution's arguments and merges them
// into the tightest interval that still covers every match; `=` bounds both
// ends. ok is false when a deferred operand cannot be evaluated or converted
// to the column's key space (a NULL argument, the wrong comparison class):
// the caller then scans every row, and the re-applied predicate decides —
// or fails — exactly as it does for a literal that was no candidate.
func (a *accessPath) bind(s *Session, params value.Row) (r keyRange, ok bool) {
	r.lo, r.hi = value.NewNull(), value.NewNull()
	for i := range a.bounds {
		b := &a.bounds[i]
		v, exact := b.val, b.exact
		if b.expr != nil {
			cv, err := s.evalConst(b.expr, params)
			if err != nil {
				return r, false
			}
			var usable bool
			if v, exact, usable = indexProbeValue(a.colType, cv); !usable {
				return r, false
			}
		}
		if b.op != "<" && b.op != "<=" {
			narrow(&r.lo, &r.loStrict, v, b.op == ">" && exact, +1)
		}
		if b.op != ">" && b.op != ">=" {
			if !exact && b.op != "=" {
				// Inexact upper bound: widen one key upward so no match is
				// lost (e.g. INT col < 1.2 must include col = 1). An inexact
				// equality matches nothing; its probe may return anything.
				v = value.NewInt(v.Int() + 1)
			}
			narrow(&r.hi, &r.hiStrict, v, b.op == "<" && exact, -1)
		}
	}
	return r, true
}

// narrow replaces one end of a key interval — the lower end when dir is +1,
// the upper when -1 — with (v, strict) where that is the tighter bound.
func narrow(end *value.Value, endStrict *bool, v value.Value, strict bool, dir int) {
	if !end.IsNull() {
		c, err := v.Compare(*end)
		if err != nil || c*dir < 0 || (c == 0 && (*endStrict || !strict)) {
			return
		}
	}
	*end, *endStrict = v, strict
}

func columnTypeAt(sources []*sourcePlan, slotSource []int, slot int) value.Type {
	src := sources[slotSource[slot]]
	return src.tbl.Schema().Columns[slot-src.offset].Type
}

// resolveSources builds the source plans and the global value-slot layout
// (bindings plus slot -> source mapping) for a FROM list. Every planning
// entry point (planFor, planMutation — and so EXPLAIN) and the reference
// executor derive the layout from here, so plan explanation can never
// diverge from plan execution.
func (s *Session) resolveSources(from []sqlparse.TableRef) ([]*sourcePlan, []binding, []int, error) {
	sources := make([]*sourcePlan, len(from))
	offset := 0
	for si, ref := range from {
		tbl, err := s.Eng.Table(ref.Table)
		if err != nil {
			return nil, nil, nil, err
		}
		sources[si] = &sourcePlan{ref: ref, tbl: tbl, offset: offset, numCols: len(tbl.Schema().Columns)}
		offset += sources[si].numCols
	}
	bindings := make([]binding, 0, offset)
	slotSource := make([]int, 0, offset)
	for si, src := range sources {
		for i, col := range src.tbl.Schema().Columns {
			bindings = append(bindings, binding{table: src.tbl.Name(), alias: src.ref.Alias, column: col.Name, colIdx: i})
			slotSource = append(slotSource, si)
		}
	}
	return sources, bindings, slotSource, nil
}

// --- execution -----------------------------------------------------------------------------

// scanRowIDs produces the source's candidate RowIDs: the result of its index
// probe, bound to this execution's arguments, or every RowID when the source
// has no probe or its bounds cannot be bound (accessPath.bind).
//
// Under a snapshot the index trees still reflect the CURRENT rows, so a
// probe result is widened with the rows the snapshot sees differently
// (updated or deleted since it was taken) — the probe only needs to produce
// a superset, the scan re-applies every pushed predicate per row.
func (s *Session) scanRowIDs(src *sourcePlan, params value.Row, snap *storage.Snapshot) ([]int64, error) {
	if !src.access.fullScan() {
		if r, ok := src.access.bind(s, params); ok {
			var ids []int64
			var err error
			if r.point() {
				ids, err = src.tbl.IndexLookup(src.access.column, r.lo)
			} else {
				ids, err = src.tbl.IndexRange(src.access.column, r.lo, r.loStrict, r.hi, r.hiStrict)
			}
			if err != nil || snap == nil {
				return ids, err
			}
			return snap.AugmentRowIDs(src.tbl, ids), nil
		}
	}
	if snap != nil {
		return snap.RowIDs(src.tbl), nil
	}
	return src.tbl.RowIDs(), nil
}

// buildPipeline assembles the iterator tree of the planned FROM/WHERE
// pipeline (scans, joins, post-join filters and residual conjuncts). It is
// the only producer of a statement's base rows: SELECT cursors and the
// ON (SELECT ...) of the annotation commands pull from it through rowStage;
// UPDATE and DELETE drain it directly for their read phase, with snap == nil
// — the current state under the table's write latch — which also keeps them
// off the batch scan. Sources are scanned and joined in the plan's execution
// order; a reordered plan restores the syntactic layout and row order before
// the residual filter. orderedIDs, when non-nil, is a pre-captured
// index-ordered RowID list for the (single) source — the sort-elision path
// of buildSelectIter — and bypasses the vectorized batch scan, which only
// reads in RowID order.
func (s *Session) buildPipeline(ctx context.Context, plan *physicalPlan, bindings []binding, params value.Row, snap *storage.Snapshot, orderedIDs []int64) (rowIter, error) {
	first := plan.sources[plan.order[0]]
	var it rowIter
	if orderedIDs != nil {
		it = &scanIter{ctx: ctx, src: first, ids: orderedIDs, params: params, snap: snap}
	} else if bs := s.tryBatchScan(ctx, first, params, snap); bs != nil && len(plan.steps) == 0 {
		// Single-source full scan under a current snapshot: run vectorized.
		// The adapter emits the same rows (values, origins, order) the row
		// scan would, so everything downstream is oblivious.
		it = &batchRowsIter{src: bs}
	} else {
		ids, err := s.scanRowIDs(first, params, snap)
		if err != nil {
			return nil, err
		}
		it = &scanIter{ctx: ctx, src: first, ids: ids, params: params, snap: snap}
	}
	for i := range plan.steps {
		step := &plan.steps[i]
		rids, err := s.scanRowIDs(step.right, params, snap)
		if err != nil {
			return nil, err
		}
		rightRows, err := drainIter(&scanIter{ctx: ctx, src: step.right, ids: rids, params: params, snap: snap})
		if err != nil {
			return nil, err
		}
		if len(step.leftKey) > 0 {
			it = newHashJoinIter(ctx, it, rightRows, step.leftKey, step.rightKey)
		} else {
			it = &crossJoinIter{ctx: ctx, left: it, right: rightRows}
		}
		if len(step.post) > 0 {
			it = &filterIter{in: it, preds: step.post, params: params}
		}
	}
	if plan.reordered {
		it = &restoreIter{in: it, plan: plan}
	}
	if len(plan.residual) > 0 {
		// Residual conjuncts (aggregates over single rows, late resolution
		// errors) are evaluated exactly like the naive executor evaluates
		// WHERE.
		it = &residualIter{s: s, in: it, exprs: plan.residual, bindings: bindings, params: params}
	}
	return it, nil
}

// rowStage is the row half of a SELECT: the planned pipeline, then
// decoration (annotations and outdated marks, attached to survivors only)
// and AWHERE. Its rows still carry their (table, RowID) origins and the full
// FROM layout; the output stage of buildSelectIter (grouping, projection,
// DISTINCT, set operations, ordering, LIMIT) consumes them for a cursor,
// selectRegions consumes them as the address of an annotation command.
func (s *Session) rowStage(ctx context.Context, plan *stmtPlan, awhere sqlparse.Expr, params value.Row, snap *storage.Snapshot, orderedIDs []int64) (rowIter, error) {
	it, err := s.buildPipeline(ctx, &plan.phys, plan.bindings, params, snap, orderedIDs)
	if err != nil {
		return nil, err
	}
	return &decorateIter{in: it, dec: s.newDecorator(plan.sources), awhere: awhere, params: params}, nil
}

// annSource is the per-source decoration plan: which annotation tables the
// ANNOTATION clause requested and the outdated bitmap, both resolved once
// per query instead of once per row.
type annSource struct {
	name     string
	offset   int
	numCols  int
	want     bool
	filter   annotation.Filter
	bm       *dependency.Bitmap
	colNames []string
}

// decorator attaches annotations and outdated marks to pipeline rows.
// Resolving the per-source state once at construction lets the streaming
// cursor decorate one row per Next call at the same cost per row as the
// batch path.
type decorator struct {
	s         *Session
	plans     []annSource
	totalCols int
	anyWork   bool
	// wantAnns is set when some source has an ANNOTATION clause; without it
	// the only decoration work there can be is outdated marks.
	wantAnns bool
}

// newDecorator resolves the decoration plan of each source.
func (s *Session) newDecorator(sources []*sourcePlan) *decorator {
	d := &decorator{s: s, plans: make([]annSource, len(sources))}
	for i, src := range sources {
		d.totalCols += src.numCols
		as := annSource{
			name:    src.tbl.Name(),
			offset:  src.offset,
			numCols: src.numCols,
		}
		if len(src.ref.Annotations) > 0 {
			as.want, d.wantAnns = true, true
			if src.ref.Annotations[0] != "*" {
				as.filter.AnnTables = src.ref.Annotations
			}
		}
		if s.Dep != nil {
			if bm := s.Dep.Bitmap(src.tbl.Name()); bm.Any() {
				as.bm = bm
				as.colNames = src.tbl.Schema().ColumnNames()
			}
		}
		if as.want || as.bm != nil {
			d.anyWork = true
		}
		d.plans[i] = as
	}
	return d
}

// decorate attaches the requested annotations and outdated marks to one row.
func (d *decorator) decorate(r *execRow) {
	r.anns = make([][]*annotation.Annotation, d.totalCols)
	if !d.anyWork {
		return
	}
	for j := range d.plans {
		as := &d.plans[j]
		if !as.want && as.bm == nil {
			continue
		}
		rowID := r.origins[j].rowID
		if as.want {
			for c := 0; c < as.numCols; c++ {
				r.anns[as.offset+c] = d.s.Ann.ForCell(as.name, rowID, c, as.filter)
			}
		}
		if as.bm != nil && as.bm.RowOutdated(rowID) {
			as.appendOutdated(r.anns, rowID)
		}
	}
}

// appendOutdated appends to anns, one row's annotation cells, a synthetic
// annotation for each outdated cell of the source's row rowID.
func (as *annSource) appendOutdated(anns [][]*annotation.Annotation, rowID int64) {
	for c := 0; c < as.numCols; c++ {
		if as.bm.IsSet(rowID, c) {
			anns[as.offset+c] = append(anns[as.offset+c], &annotation.Annotation{
				AnnTable:  OutdatedAnnTable,
				UserTable: as.name,
				Author:    "system:dependency-tracker",
				Body: fmt.Sprintf("<Annotation>OUTDATED: %s.%s of row %d needs re-verification</Annotation>",
					as.name, as.colNames[c], rowID),
				Regions: []annotation.Region{annotation.CellRegion(as.name, rowID, c)},
			})
		}
	}
}
