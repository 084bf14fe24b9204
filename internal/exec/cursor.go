package exec

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/catalog"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// This file is the cursor layer of the executor: the Go-database-idiom
// surface (Query / Prepare / Rows / Stmt) over the streaming SELECT
// pipeline. Every SELECT shape executes through the iterator pipeline:
//
//	scan/join (iterator.go) -> decorate + AWHERE -> [group/HAVING/AHAVING]
//	  -> FILTER -> project -> [DISTINCT] -> [set op] -> [sort | top-N]
//
// Fully per-row shapes (no grouping, duplicate elimination, ordering or set
// operation) stream one row per Rows.Next: the full result set is never
// materialized and the first row of an indexed point query costs a handful
// of allocations regardless of table size. Blocking operators — grouped
// aggregation (group.go), DISTINCT and set operations (setop.go), and
// ordering (sort.go) — consume their input on the first Next but hold only
// budget-bounded state: they spill to temp files (spill.go) instead of
// materializing, and ORDER BY + LIMIT runs through a Top-N heap whose
// resident cost is O(LIMIT). There is no eager fallback path.
//
// Prepared statements parse once and plan once: the physical plan is cached
// on the Stmt and revalidated against the storage engine's schema version
// (and, where cost chose something, the statistics it chose from), so
// re-executions skip both the parser and the planner and only re-bind the
// `?` parameters.

// Query runs one A-SQL statement and returns a cursor over its result. args
// bind the statement's `?` placeholders (left to right) and must match their
// count. The context is checked inside the scan and join iterators, so
// canceling it aborts a long-running query with ctx.Err(). DML honors the
// context while matching rows AND between row writes: a bare statement runs
// in an implicit transaction, so cancellation (like any mid-statement
// error) rolls its partial writes back before the error is returned.
// Transaction-control statements (BEGIN/COMMIT/ROLLBACK/SAVEPOINT) drive
// the session's transaction state — see Session.Begin — and while a
// transaction is open every statement routes through it.
//
// A streaming cursor takes no locks: it pins an MVCC snapshot of the
// committed state at Query time and reads through it, so concurrent writers
// proceed unhindered and never shear the scan. Always close the returned
// Rows (Close is idempotent, and exhausting the cursor releases the
// snapshot as well) — an open snapshot pins row versions engine-wide.
// Cursors can be held open across any other statement, including mutations
// from the same or other goroutines and nested Queries inside a Next loop;
// the cursor keeps reporting its snapshot, unaffected by what commits
// meanwhile.
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(sqlparse.CountPlaceholders(stmt), args)
	if err != nil {
		return nil, err
	}
	return s.queryStmt(ctx, stmt, params, nil)
}

// Prepare parses the statement once and returns a Stmt that re-binds its `?`
// placeholders per execution. For SELECT, UPDATE and DELETE the physical plan
// is additionally cached across executions (invalidated by DDL, and for a
// join or an ORDER BY ... LIMIT by its tables' statistics moving), so a
// prepared point query or point mutation skips parsing and planning entirely.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{
		sess:      s,
		text:      sql,
		stmt:      stmt,
		numParams: sqlparse.CountPlaceholders(stmt),
	}, nil
}

// Stmt is a prepared statement: parsed once, re-bound per execution. A Stmt
// is safe for concurrent use by multiple goroutines.
type Stmt struct {
	sess      *Session
	text      string
	stmt      sqlparse.Statement
	numParams int

	mu   sync.Mutex
	plan *stmtPlan
}

// stmtPlan is the plan of one SELECT, UPDATE or DELETE: the planned pipeline
// that produces the statement's rows, plus the projection layout (SELECT) or
// the SET target ordinals (UPDATE). A prepared statement caches it; it stays
// valid while the schema version is unchanged and the statistics its costed
// choices were made from still stand (statsMoved). Nothing writes to a plan
// once it is built: concurrent executions of one Stmt share it.
type stmtPlan struct {
	version  uint64
	sources  []*sourcePlan
	bindings []binding
	phys     physicalPlan
	items    []planItem
	setCols  []int // column ordinal of each UPDATE SET clause, in clause order
	// costed marks a plan in which the cost model chose something: a join
	// (order, hash or nested loop) or an ORDER BY ... LIMIT (Top-N or sort).
	costed bool
	// right is the plan of a set operation's right operand, planned with its
	// parent so that it is cached and invalidated with it.
	right *stmtPlan
}

// statsMoved reports whether a choice the cost model made somewhere in the
// plan rests on statistics that have since been rebuilt (a rebuild resets
// Mods and re-bases BaseRows), or have drifted far enough that the next
// reader rebuilds them: planning again would then read different numbers. A
// plan that cost chose nothing in is never stale.
func (p *stmtPlan) statsMoved() bool {
	for ; p != nil; p = p.right {
		if !p.costed {
			continue
		}
		for i, seen := range p.phys.tstats {
			if seen == nil {
				continue
			}
			cur := p.sources[i].tbl.CurrentStats()
			if cur == nil || cur.Drifted() || cur.BaseRows != seen.BaseRows || cur.Mods < seen.Mods {
				return true
			}
		}
	}
	return false
}

// Text returns the statement's A-SQL source.
func (st *Stmt) Text() string { return st.text }

// NumParams returns the number of `?` placeholders in the statement.
func (st *Stmt) NumParams() int { return st.numParams }

// Query executes the prepared statement with the given arguments and returns
// a cursor over its result.
func (st *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	params, err := bindArgs(st.numParams, args)
	if err != nil {
		return nil, err
	}
	return st.sess.queryStmt(ctx, st.stmt, params, st)
}

// Exec executes the prepared statement and drains the cursor into a
// materialized Result; the convenient form for DML.
func (st *Stmt) Exec(args ...any) (*Result, error) {
	rows, err := st.Query(context.Background(), args...)
	if err != nil {
		return nil, err
	}
	return rows.materialize()
}

// planOf returns the plan of a SELECT, UPDATE or DELETE: prep's cached plan
// while the schema version and the statistics behind it hold, a fresh one
// otherwise (and always for an unprepared statement) — so a statement
// prepared before its tables were loaded gets the plan a literal statement
// would get after. DDL can run concurrently with the version check of
// a SELECT; a plan cached against a version that moves immediately
// afterwards is still safe to execute — it holds direct table references
// (dropped tables stay readable through open snapshots) and index probes
// only ever produce candidate supersets that the scan re-filters — it is
// merely stale, and the next execution replans. A mutation checks under its
// table's write latch, which DDL on that table also needs.
func (s *Session) planOf(stmt sqlparse.Statement, prep *Stmt) (*stmtPlan, error) {
	if prep == nil {
		return s.planStmt(stmt)
	}
	prep.mu.Lock()
	defer prep.mu.Unlock()
	if prep.plan != nil && prep.plan.version == s.Eng.SchemaVersion() && !prep.plan.statsMoved() {
		return prep.plan, nil
	}
	plan, err := s.planStmt(stmt)
	if err != nil {
		return nil, err
	}
	prep.plan = plan
	return plan, nil
}

// planStmt plans one of the statements that pull rows from the pipeline.
func (s *Session) planStmt(stmt sqlparse.Statement) (*stmtPlan, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return s.planFor(st)
	case *sqlparse.UpdateStmt:
		return s.planMutation(st.Table, st.Where, st.Set)
	case *sqlparse.DeleteStmt:
		return s.planMutation(st.Table, st.Where, nil)
	default:
		return nil, fmt.Errorf("%w: no plan for %T", ErrUnsupported, stmt)
	}
}

// planFor resolves sources and builds the physical plan and projection
// layout of a SELECT and, below it, of the right operand of its set operation.
func (s *Session) planFor(sel *sqlparse.SelectStmt) (*stmtPlan, error) {
	sources, bindings, slotSource, err := s.resolveSources(sel.From)
	if err != nil {
		return nil, err
	}
	plan := &stmtPlan{
		version:  s.Eng.SchemaVersion(),
		sources:  sources,
		bindings: bindings,
		items:    resolveItems(sel, bindings),
		costed:   len(sources) > 1 || (sel.Limit >= 0 && len(sel.OrderBy) > 0),
	}
	s.planSelect(&plan.phys, sel, sources, bindings, slotSource)
	if sel.SetOp != sqlparse.SetNone {
		if plan.right, err = s.planFor(sel.SetRight); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// planMutation plans the read phase of an UPDATE or DELETE — the rows of
// `FROM table WHERE where` — with the SELECT planner's own predicate
// placement (pushDown), and resolves the SET targets to column ordinals, so
// an unknown target fails the statement whether or not any row matches.
func (s *Session) planMutation(table string, where sqlparse.Expr, set []sqlparse.SetClause) (*stmtPlan, error) {
	sources, bindings, slotSource, err := s.resolveSources([]sqlparse.TableRef{{Table: table}})
	if err != nil {
		return nil, err
	}
	plan := &stmtPlan{version: s.Eng.SchemaVersion(), sources: sources, bindings: bindings}
	s.pushDown(&plan.phys, where, sources, bindings, slotSource)
	schema := sources[0].tbl.Schema()
	for _, sc := range set {
		idx := schema.ColumnIndex(sc.Column)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s.%s", catalog.ErrColumnNotFound, table, sc.Column)
		}
		plan.setCols = append(plan.setCols, idx)
	}
	return plan, nil
}

// planQuery checks the SELECT privilege on every FROM table, those of a set
// operation's operands included, and returns the SELECT's plan.
func (s *Session) planQuery(sel *sqlparse.SelectStmt, prep *Stmt) (*stmtPlan, error) {
	for q := sel; q != nil; q = q.SetRight {
		for _, ref := range q.From {
			if err := s.require(ref.Table, authz.PrivSelect); err != nil {
				return nil, err
			}
		}
	}
	return s.planOf(sel, prep)
}

// queryStmt routes a bound statement: transaction control goes to the
// session's transaction state; statements inside an open transaction run
// under it (reading current state under the transaction's latches); bare
// SELECTs stream from an MVCC snapshot, latch-free (every shape — blocking
// operators spill rather than materialize); everything else executes inside
// an implicit auto-commit transaction under per-table write latches and is
// wrapped in a materialized cursor. A NoOptimize session routes SELECTs
// through the naive reference executor instead.
func (s *Session) queryStmt(ctx context.Context, stmt sqlparse.Statement, params value.Row, prep *Stmt) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sqlparse.IsTxControl(stmt) {
		msg, err := s.execTxControl(ctx, stmt)
		if err != nil {
			return nil, err
		}
		return &Rows{message: msg, limit: -1}, nil
	}
	if tx := s.openTx(); tx != nil {
		return tx.queryStmt(ctx, stmt, params, prep)
	}
	if sel, ok := stmt.(*sqlparse.SelectStmt); ok && !s.NoOptimize {
		return s.queryStream(ctx, sel, params, prep)
	}
	res, err := s.execAutoCommit(ctx, stmt, params, prep)
	if err != nil {
		return nil, err
	}
	return &Rows{
		cols:     res.Columns,
		rows:     res.Rows,
		affected: res.Affected,
		message:  res.Message,
		limit:    -1,
	}, nil
}

// queryStream builds the lazy pipeline of a streamable SELECT. An MVCC
// snapshot is pinned here and held until the cursor is closed or exhausted:
// the cursor reads the committed state as of this moment, concurrent
// writers notwithstanding, and holds no locks while doing so.
func (s *Session) queryStream(ctx context.Context, sel *sqlparse.SelectStmt, params value.Row, prep *Stmt) (*Rows, error) {
	snap := s.Eng.NewSnapshot()
	rows, err := s.buildStream(ctx, sel, params, prep, snap)
	if err != nil {
		snap.Close()
		return nil, err
	}
	rows.unlock = snap.Close
	return rows, nil
}

// buildStream assembles the cursor over one SELECT. snap, when non-nil, is
// the MVCC snapshot every table read goes through; transaction cursors pass
// nil and read the current state under the transaction's latches.
func (s *Session) buildStream(ctx context.Context, sel *sqlparse.SelectStmt, params value.Row, prep *Stmt, snap *storage.Snapshot) (*Rows, error) {
	// The top level's LIMIT is enforced lazily by Rows.limit (so an
	// unordered LIMIT stops pulling early); nested operands apply theirs
	// inside buildSelectIter.
	plan, err := s.planQuery(sel, prep)
	if err != nil {
		return nil, err
	}
	ait, cols, closers, err := s.buildSelectIter(ctx, sel, plan, params, false, snap)
	if err != nil {
		for _, c := range closers {
			c()
		}
		return nil, err
	}
	rows := &Rows{
		cols:    cols,
		ait:     ait,
		limit:   sel.Limit,
		closers: closers,
	}
	if ctx.Done() != nil {
		rows.ctx = ctx
	}
	return rows, nil
}

// limitIter caps a nested operand's output at n rows, stopping its pulls
// once the cap is reached (consistent with the cursor's lazy top-level
// LIMIT).
type limitIter struct {
	in aRowIter
	n  int
}

func (it *limitIter) Next() (ARow, bool, error) {
	if it.n <= 0 {
		return ARow{}, false, nil
	}
	row, ok, err := it.in.Next()
	if err != nil || !ok {
		return ARow{}, false, err
	}
	it.n--
	return row, true, nil
}

// buildSelectIter assembles the full lazy pipeline of one SELECT (including
// the right operand of a set operation, recursively): the row stage
// (rowStage in planner.go) and, on top of it, the output stage — grouping,
// projection, DISTINCT, set operation, ordering, LIMIT. It returns the output
// iterator, the output column names and the cleanup hooks of any spill files
// the blocking operators may create. applyLimit is set for nested operands,
// whose LIMIT binds to their own level (a trailing LIMIT in a compound
// statement parses into the rightmost SELECT); the top level leaves it to
// the cursor.
func (s *Session) buildSelectIter(ctx context.Context, sel *sqlparse.SelectStmt, plan *stmtPlan, params value.Row, applyLimit bool, snap *storage.Snapshot) (aRowIter, []string, []func(), error) {
	// Projection layout and order plan are resolved before the pipeline is
	// built: unknown-column errors surface from Query itself (like the
	// reference executor's), and the sort-elision check below needs the
	// resolved order keys to decide the scan order.
	proj := newProjector(s, plan.items, plan.bindings, params)
	outputOnly := sel.Distinct || sel.SetOp != sqlparse.SetNone
	var orderKeys []orderKey
	if len(sel.OrderBy) > 0 {
		var err error
		orderKeys, err = buildOrderPlan(sel.OrderBy, proj.cols, plan.bindings, outputOnly)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	// Sort elision: a single-source full scan ordered by one ascending
	// NOT NULL indexed column can stream the heap in index order instead of
	// sorting. Only snapshot cursors elide — the ordered RowID list is read
	// from the live index, so it is valid exactly when the snapshot still
	// sees the current heap; the IDs are captured BEFORE that check so a
	// concurrent writer between the two steps makes the check fail rather
	// than the list lie. Transaction cursors (snap == nil) keep sorting.
	var orderedIDs []int64
	sortElided := false
	if len(orderKeys) > 0 && !outputOnly && snap != nil {
		if col, ok := sortElisionColumn(sel, &plan.phys, proj, orderKeys); ok {
			src := plan.phys.sources[0]
			ids, idErr := src.tbl.IndexOrderedRowIDs(col)
			if idErr == nil && snap.SeesCurrentHeap(src.tbl) {
				orderedIDs = ids
				sortElided = true
			}
		}
	}

	var closers []func()
	it, err := s.rowStage(ctx, plan, sel.AWhere, params, snap, orderedIDs)
	if err != nil {
		return nil, nil, nil, err
	}

	// Grouped aggregation, HAVING and AHAVING — the same clause order the
	// reference executor applies.
	if len(sel.GroupBy) > 0 || hasAggregate(sel.Items) || sel.Having != nil {
		sf := &spillFile{}
		closers = append(closers, sf.Close)
		g, err := newGroupAggIter(s, it, sel, plan.bindings, sf)
		if err != nil {
			return nil, nil, closers, err
		}
		// Vectorized aggregation: when the input is the batch scan adapter and
		// nothing between scan and aggregation needs the row boxed (no
		// ANNOTATION clause, no AWHERE), consume column vectors directly.
		// Outdated marks do not need it: the aggregation attaches them itself,
		// to the marked rows only.
		if d, ok := it.(*decorateIter); ok && !d.dec.wantAnns && d.awhere == nil {
			if b, ok := d.in.(*batchRowsIter); ok {
				g.batches = &b.scan
				g.annWidth = d.dec.totalCols
				// A batch scan is the plan's only source.
				if as := &d.dec.plans[0]; as.bm != nil {
					g.marks = as
				}
			}
		}
		it = g
		if sel.Having != nil {
			it = &havingIter{s: s, in: it, expr: sel.Having, bindings: plan.bindings, params: params}
		}
	}
	if sel.AHaving != nil {
		it = &annMatchIter{in: it, expr: sel.AHaving, params: params}
	}
	if sel.Filter != nil {
		it = &annFilterIter{in: it, expr: sel.Filter, params: params}
	}

	// Projection, duplicate elimination, set operation and ordering.
	sortStage := func(in keyedIter) aRowIter {
		// Top-N beats a full sort when the limit undercuts the estimated
		// input size; a LIMIT that would keep (nearly) everything sorts
		// once instead of maintaining a same-sized heap.
		if topNWins(sel.Limit, &plan.phys) {
			t := newTopNIter(in, orderKeys, sel.Limit)
			if pk, ok := in.(*projectKeyIter); ok {
				// Rows that cannot enter the full heap are dropped on the
				// column vectors, before they are boxed.
				t.gate(pk)
			}
			return t
		}
		sf := &spillFile{}
		closers = append(closers, sf.Close)
		return newSortIter(in, orderKeys, s.spillBudget(), sf)
	}

	var a aRowIter
	if sortElided {
		// The scan already streams in the requested order; project and done.
		a = &projectIter{in: it, proj: proj}
	} else if len(orderKeys) > 0 && !outputOnly {
		// Plain ordered SELECT: sort keys may reference non-projected
		// columns, extracted from the pre-projection row.
		a = sortStage(&projectKeyIter{in: it, proj: proj, keys: orderKeys})
	} else {
		a = &projectIter{in: it, proj: proj}
		if sel.Distinct {
			sf := &spillFile{}
			closers = append(closers, sf.Close)
			a = newDistinctIter(a, s.spillBudget(), sf)
		}
		if sel.SetOp != sqlparse.SetNone {
			right, _, rightClosers, err := s.buildSelectIter(ctx, sel.SetRight, plan.right, params, true, snap)
			closers = append(closers, rightClosers...)
			if err != nil {
				return nil, nil, closers, err
			}
			switch sel.SetOp {
			case sqlparse.SetUnion:
				sf := &spillFile{}
				closers = append(closers, sf.Close)
				a = newDistinctIter(newConcatIter(a, right), s.spillBudget(), sf)
			case sqlparse.SetIntersect:
				a = newSetOpIter(true, a, right)
			case sqlparse.SetExcept:
				a = newSetOpIter(false, a, right)
			}
		}
		if len(orderKeys) > 0 {
			a = sortStage(&outColKeyIter{in: a, keys: orderKeys})
		}
	}
	if applyLimit && sel.Limit >= 0 {
		a = &limitIter{in: a, n: sel.Limit}
	}
	return a, proj.cols, closers, nil
}

// decorateIter attaches annotations and outdated marks to each surviving
// row, then applies AWHERE: a row survives only when one of its annotations
// satisfies the condition. (FILTER runs later, above grouping, so AHAVING
// observes unfiltered annotation sets — the reference clause order.)
type decorateIter struct {
	in     rowIter
	dec    *decorator
	awhere sqlparse.Expr
	params value.Row
}

func (it *decorateIter) Next() (execRow, bool, error) {
	for {
		r, ok, err := it.in.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		it.dec.decorate(&r)
		if it.awhere != nil {
			match, err := annRowMatches(it.awhere, &r, it.params)
			if err != nil {
				return execRow{}, false, err
			}
			if !match {
				continue
			}
		}
		return r, true, nil
	}
}

// --- argument binding ----------------------------------------------------------------------

// bindArgs converts the Go argument list into a parameter row, type-checking
// the count against the statement's placeholders.
func bindArgs(numParams int, args []any) (value.Row, error) {
	if len(args) != numParams {
		return nil, fmt.Errorf("%w: statement has %d placeholder(s), got %d argument(s)",
			ErrBadArgs, numParams, len(args))
	}
	if numParams == 0 {
		return nil, nil
	}
	params := make(value.Row, numParams)
	for i, a := range args {
		v, err := argValue(a)
		if err != nil {
			return nil, fmt.Errorf("%w: argument %d: %v", ErrBadArgs, i+1, err)
		}
		params[i] = v
	}
	return params, nil
}

// argValue converts one Go argument to a typed value.
func argValue(a any) (value.Value, error) {
	switch v := a.(type) {
	case nil:
		return value.NewNull(), nil
	case value.Value:
		return v, nil
	case string:
		return value.NewText(v), nil
	case []byte:
		return value.NewText(string(v)), nil
	case bool:
		return value.NewBool(v), nil
	case int:
		return value.NewInt(int64(v)), nil
	case int8:
		return value.NewInt(int64(v)), nil
	case int16:
		return value.NewInt(int64(v)), nil
	case int32:
		return value.NewInt(int64(v)), nil
	case int64:
		return value.NewInt(v), nil
	case uint:
		if uint64(v) > math.MaxInt64 {
			return value.Value{}, fmt.Errorf("uint value %d overflows INT", v)
		}
		return value.NewInt(int64(v)), nil
	case uint8:
		return value.NewInt(int64(v)), nil
	case uint16:
		return value.NewInt(int64(v)), nil
	case uint32:
		return value.NewInt(int64(v)), nil
	case uint64:
		if v > math.MaxInt64 {
			return value.Value{}, fmt.Errorf("uint64 value %d overflows INT", v)
		}
		return value.NewInt(int64(v)), nil
	case float32:
		return value.NewFloat(float64(v)), nil
	case float64:
		return value.NewFloat(v), nil
	case time.Time:
		return value.NewTimestamp(v), nil
	default:
		return value.Value{}, fmt.Errorf("unsupported argument type %T", a)
	}
}

// --- Rows ----------------------------------------------------------------------------------

// Rows is a cursor over a statement's result, modeled on database/sql: call
// Next until it returns false, read the current row with Scan / Row /
// Annotations, then check Err and Close. A streaming Rows (every SELECT)
// pins an MVCC snapshot until closed or exhausted; a materialized
// Rows (DML/DDL results) holds nothing. Blocking operators inside the
// pipeline (grouping, DISTINCT, set operations, ordering) consume their
// input on the first Next; their spill files are released when the cursor
// finishes.
type Rows struct {
	cols []string

	// Streaming state (ait != nil): the assembled SELECT pipeline, already
	// projected.
	ait aRowIter
	// lazyB, when set, and lazyAt locate the current row's values in its
	// batch: Next left them unboxed (pull), cur holds only the projected
	// annotation cells, and Row boxes the projected values, once, or Scan
	// copies them out.
	lazyB *batch
	// closers release the spill files of blocking operators; run once by
	// finish (end of stream, error, or Close).
	closers []func()

	// Materialized state (ait == nil): the rows not yet handed out.
	rows []ARow
	// ctx is a streaming cursor's query context when it can be canceled:
	// Next checks it before handing out each row, so a canceled cursor
	// stops at once, although an operator may still hold buffered rows.
	ctx context.Context

	limit int // rows still to emit; -1 = unlimited
	cur   ARow
	// The flags sit together, and lazyAt beside killed, so that a cursor
	// stays in one 256-byte allocation.
	valid    bool
	ended    bool // iteration finished (exhausted, errored or closed)
	closed   bool
	err      error
	affected int
	message  string
	unlock   func()

	// Transaction-end invalidation: killErr is written before killed is
	// set, so a Next observing killed also observes the error. Only these
	// two fields may be touched from another goroutine (the transaction's
	// context watcher); everything else is single-goroutine.
	killErr error
	killed  atomic.Bool
	lazyAt  int32
	// txmu, set on cursors opened inside a transaction, is the owning
	// transaction's mutex: Next holds it for the duration of each pull so
	// the context watcher's auto-rollback cannot rewrite heap pages and
	// B-trees underneath an in-flight iteration — the rollback waits for
	// the current Next, which then observes killed and stops.
	txmu *sync.Mutex
}

// invalidate kills a cursor whose transaction ended: the next Next returns
// false and Err reports err. A cursor that already finished iterating keeps
// its original outcome.
func (r *Rows) invalidate(err error) {
	if r.killed.Load() {
		return
	}
	r.killErr = err
	r.killed.Store(true)
}

// Columns returns the output column names (empty for DML/DDL results).
func (r *Rows) Columns() []string { return r.cols }

// Affected returns the number of rows affected when the statement was DML.
func (r *Rows) Affected() int { return r.affected }

// Message returns the DDL/utility summary message, if any.
func (r *Rows) Message() string { return r.message }

// Next advances to the next row. It returns false at end of stream, on
// error (check Err), after Close, and once a LIMIT is exhausted.
func (r *Rows) Next() bool {
	if r.txmu != nil {
		r.txmu.Lock()
		defer r.txmu.Unlock()
	}
	if r.lazyB != nil {
		// The row's batch may be overwritten by the pull below.
		r.lazyB, r.cur = nil, ARow{}
	}
	if r.killed.Load() && !r.ended {
		r.err = r.killErr
		r.finish()
		r.closed = true
		return false
	}
	if r.closed || r.err != nil {
		r.valid = false
		return false
	}
	if r.ctx != nil && !r.ended {
		select {
		case <-r.ctx.Done():
			r.err = r.ctx.Err()
			r.finish()
			return false
		default:
		}
	}
	if r.limit == 0 {
		r.finish()
		return false
	}
	if r.ait != nil {
		ok, err := r.pull()
		if err != nil {
			r.err = err
			r.finish()
			return false
		}
		if !ok {
			r.finish()
			return false
		}
	} else {
		if len(r.rows) == 0 {
			r.finish()
			return false
		}
		r.cur, r.rows = r.rows[0], r.rows[1:]
	}
	if r.limit > 0 {
		r.limit--
	}
	r.valid = true
	return true
}

// pull reads the next result row of the pipeline into cur. Under a bare
// projection, a row still in its batch whose projection evaluates nothing
// gets only its annotation cells projected: its values stay where lazyB and
// lazyAt say, boxed only if the caller reads them.
func (r *Rows) pull() (bool, error) {
	p, bare := r.ait.(*projectIter)
	if !bare {
		row, ok, err := r.ait.Next()
		if ok && err == nil {
			r.cur = row
		}
		return ok, err
	}
	row, ok, err := p.in.Next()
	if err != nil || !ok {
		return false, err
	}
	if row.b == nil || p.proj.evaluates {
		out, err := p.proj.row(row)
		if err != nil {
			return false, err
		}
		r.cur = out
		return true, nil
	}
	r.cur = ARow{Anns: p.proj.anns(&row)}
	r.lazyB, r.lazyAt = row.b, row.at
	return true, nil
}

// Row returns the current row (valid after a true Next).
func (r *Rows) Row() ARow {
	if r.lazyB != nil {
		row := execRow{b: r.lazyB, at: r.lazyAt}
		// The projection evaluates nothing, so it cannot fail.
		r.cur.Values, _ = r.ait.(*projectIter).proj.values(&row)
		r.lazyB = nil
	}
	return r.cur
}

// value returns column i of the current row, read from its batch while
// lazyB is set.
func (r *Rows) value(i int) value.Value {
	if r.lazyB == nil {
		return r.cur.Values[i]
	}
	row := execRow{b: r.lazyB, at: r.lazyAt}
	return r.ait.(*projectIter).proj.value(&row, i)
}

// Annotations returns the per-column annotations of the current row.
func (r *Rows) Annotations() [][]*annotation.Annotation { return r.cur.Anns }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor (and the MVCC snapshot a streaming cursor
// pins). It is idempotent and safe to call at any point.
func (r *Rows) Close() error {
	r.finish()
	r.closed = true
	r.valid = false
	return nil
}

// finish releases resources once; the cursor may still serve Err/Columns.
func (r *Rows) finish() {
	r.valid = false
	r.ended = true
	for _, c := range r.closers {
		c()
	}
	r.closers = nil
	if r.unlock != nil {
		r.unlock()
		r.unlock = nil
	}
}

// Scan copies the current row's values into dest, which must contain one
// pointer per output column. A row still in its batch is copied straight
// from the column vectors, without boxing a result row. Supported targets:
// *string, *int, *int64, *float64, *bool, *time.Time, *value.Value and *any.
func (r *Rows) Scan(dest ...any) error {
	if !r.valid {
		return fmt.Errorf("exec: Scan called without a successful Next")
	}
	n := len(r.cur.Values)
	if r.lazyB != nil {
		n = len(r.cols)
	}
	if len(dest) != n {
		return fmt.Errorf("exec: Scan expects %d destination(s), got %d", n, len(dest))
	}
	for i, d := range dest {
		if err := scanValue(r.value(i), d); err != nil {
			return fmt.Errorf("exec: Scan column %d (%s): %w", i, r.colName(i), err)
		}
	}
	return nil
}

func (r *Rows) colName(i int) string {
	if i < len(r.cols) {
		return r.cols[i]
	}
	return "?"
}

func scanValue(v value.Value, dest any) error {
	switch d := dest.(type) {
	case *value.Value:
		*d = v
		return nil
	case *any:
		*d = nativeValue(v)
		return nil
	case *string:
		if v.IsNull() {
			*d = ""
			return nil
		}
		*d = v.String()
		return nil
	case *int64:
		switch v.Type() {
		case value.Int:
			*d = v.Int()
		case value.Float:
			*d = int64(v.Float())
		case value.Null:
			*d = 0
		default:
			return fmt.Errorf("cannot scan %s into *int64", v.Type())
		}
		return nil
	case *int:
		var x int64
		if err := scanValue(v, &x); err != nil {
			return fmt.Errorf("cannot scan %s into *int", v.Type())
		}
		*d = int(x)
		return nil
	case *float64:
		switch v.Type() {
		case value.Int, value.Float:
			*d = v.Float()
		case value.Null:
			*d = 0
		default:
			return fmt.Errorf("cannot scan %s into *float64", v.Type())
		}
		return nil
	case *bool:
		if v.Type() != value.Bool {
			return fmt.Errorf("cannot scan %s into *bool", v.Type())
		}
		*d = v.Bool()
		return nil
	case *time.Time:
		if v.Type() != value.Timestamp {
			return fmt.Errorf("cannot scan %s into *time.Time", v.Type())
		}
		*d = v.Time()
		return nil
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
}

// nativeValue unboxes a typed value into its natural Go representation.
func nativeValue(v value.Value) any {
	switch v.Type() {
	case value.Null:
		return nil
	case value.Int:
		return v.Int()
	case value.Float:
		return v.Float()
	case value.Bool:
		return v.Bool()
	case value.Timestamp:
		return v.Time()
	default:
		return v.String()
	}
}

// materialize drains the cursor into a Result; the compatibility shim behind
// Session.Exec and Stmt.Exec.
func (r *Rows) materialize() (*Result, error) {
	res := &Result{Columns: r.cols}
	if r.ait == nil {
		res.Rows = r.rows
	} else {
		for r.Next() {
			res.Rows = append(res.Rows, r.Row())
		}
	}
	r.Close()
	if r.err != nil {
		return nil, r.err
	}
	res.Affected = r.affected
	res.Message = r.message
	return res, nil
}

// annRowMatches reports whether any annotation attached to the row satisfies
// the AWHERE / AHAVING condition.
func annRowMatches(e sqlparse.Expr, r *execRow, params value.Row) (bool, error) {
	for _, cell := range r.anns {
		for _, a := range cell {
			ok, err := evalAnnBool(e, a, params)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// filterRowAnns drops the row's annotations that fail the FILTER condition.
func filterRowAnns(e sqlparse.Expr, r *execRow, params value.Row) error {
	for c, cell := range r.anns {
		var kept []*annotation.Annotation
		for _, a := range cell {
			ok, err := evalAnnBool(e, a, params)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, a)
			}
		}
		r.anns[c] = kept
	}
	return nil
}
