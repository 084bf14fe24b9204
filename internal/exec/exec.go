// Package exec executes parsed A-SQL statements against the bdbms managers:
// the storage engine, the annotation manager (propagation semantics of
// Section 3.4), the provenance manager, the dependency manager (outdated
// marks attached to query answers, Section 5) and the authorization manager
// (GRANT/REVOKE checks and content-based approval, Section 6).
//
// # SELECT pipeline
//
// SELECT evaluation is split between a planner and a streaming executor:
//
//	parse -> plan (planner.go) -> iterate (iterator.go) -> decorate
//	  -> group/aggregate (group.go) -> project (select.go)
//	  -> distinct/set ops (setop.go) -> sort / top-N (sort.go)
//
// The planner decomposes WHERE into AND-conjuncts and places each one as
// low in the pipeline as possible: single-table conjuncts run inside the
// table scan, constant comparisons on indexed columns become B+-tree probes
// (storage.Table.IndexLookup / IndexRange), and two-table equality
// conjuncts become the keys of hash equi-joins. Sources with no connecting
// equality fall back to a block nested-loop join; conjuncts the planner
// cannot place (aggregates, late-resolving references) are evaluated
// residually, exactly as the naive executor would.
//
// The executor is a tree of Volcano-style pull iterators, so a join never
// materializes the cross product of its inputs. Rows carry only values and
// (table, RowID) origins while streaming; annotations and dependency
// outdated marks are decorated onto the survivors afterwards, which makes
// annotation propagation pay-per-result-row instead of pay-per-scanned-row.
// Blocking operators — grouped aggregation, DISTINCT, set operations,
// ORDER BY — hold only budget-bounded resident state (Session.SpillBudget)
// and spill to temp files past it (spill.go); ORDER BY + LIMIT runs as a
// Top-N heap with O(LIMIT) result memory.
//
// The planned scan/join pipeline is also how every other statement finds the
// rows it names: UPDATE and DELETE drain it for their read phase, and the
// ON (SELECT ...) of ADD / ARCHIVE / RESTORE ANNOTATION pulls from it up to
// the decorate stage; EXPLAIN renders the same plans.
//
// Session.NoOptimize bypasses all of this for SELECT and runs the reference
// materialize-then-filter implementation; the plan-equivalence tests assert
// both paths return identical rows, ordering and annotations.
//
// # Transactions
//
// Session.Begin (and the BEGIN/COMMIT/ROLLBACK/SAVEPOINT statements) group
// statements into ACID transactions; bare mutating statements auto-commit
// inside an implicit transaction so a mid-statement failure rolls back
// cleanly. See tx.go for the protocol: strict two-phase locking over
// per-table latches for writer-writer isolation (writers remain
// serializable), MVCC snapshots for latch-free SELECT cursors (readers get
// snapshot isolation — see internal/storage/mvcc.go), an in-memory undo log
// of before-images for rollback, and TxBegin/TxCommit WAL framing for crash
// atomicity, with commits sharing fsyncs when commit-time durability is on
// (wal.Log.SyncCommitted).
package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/catalog"
	"bdbms/internal/dependency"
	"bdbms/internal/provenance"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// Errors returned by the executor.
var (
	// ErrUnsupported is returned for statements the executor cannot run.
	ErrUnsupported = errors.New("exec: unsupported statement")
	// ErrUnknownColumn is returned when an expression references an unknown column.
	ErrUnknownColumn = errors.New("exec: unknown column")
	// ErrAmbiguousColumn is returned when an unqualified column matches several tables.
	ErrAmbiguousColumn = errors.New("exec: ambiguous column")
	// ErrBadArgs is returned when a statement's `?` placeholders and the
	// supplied arguments do not line up (count mismatch, unsupported Go type,
	// or a placeholder evaluated without a binding).
	ErrBadArgs = errors.New("exec: bad statement arguments")
)

// OutdatedAnnTable is the synthetic annotation table name used when the
// dependency manager flags a propagated cell as outdated.
const OutdatedAnnTable = "Outdated"

// Session executes statements on behalf of one user. Concurrency control
// lives in the engine the session points at: SELECT cursors read MVCC
// snapshots and take no locks, everything that mutates state (DML, DDL,
// annotation and approval commands) runs under the per-table write latches
// of Eng.Locks() — writers touching disjoint tables proceed in parallel up
// to the shared WAL frame, writers on the same table serialize.
//
// A Session without an open transaction may be shared by several
// goroutines. Once Begin (or a BEGIN statement) opens a transaction the
// session's statements route through it and must come from one goroutine at
// a time until Commit/Rollback — the transaction holds its accumulated
// latches for its whole lifetime, and its uncommitted writes stay invisible
// to snapshot readers until COMMIT.
type Session struct {
	// Eng is the storage engine.
	Eng *storage.Engine
	// Ann is the annotation manager.
	Ann *annotation.Manager
	// Prov is the provenance manager (may be nil).
	Prov *provenance.Manager
	// Dep is the dependency manager (may be nil).
	Dep *dependency.Manager
	// Auth is the authorization manager (may be nil).
	Auth *authz.Manager
	// User is the identity running the statements.
	User string
	// EnforceAuth enables GRANT/REVOKE privilege checks on every statement.
	EnforceAuth bool
	// NoOptimize forces SELECT onto the naive materialize-then-filter
	// executor instead of the planned iterator pipeline. The naive path is
	// the semantic reference: the plan-equivalence tests and the baseline
	// benchmarks run with NoOptimize set.
	NoOptimize bool
	// NoVectorize keeps planned SELECTs on the row-at-a-time scan instead of
	// the vectorized batch path (batch.go). The two paths must be
	// indistinguishable result-wise; the execution fuzzer runs every query
	// both ways to prove it.
	NoVectorize bool
	// NoReorder pins the join order to the syntactic FROM order and disables
	// the other cost-based join choice (nested loop when cheaper than a hash
	// build), so every keyed join stays a hash join. Result-wise the two
	// modes must be indistinguishable; the plan-shape tests set it to assert
	// the syntactic pipeline, and the join-order fuzzer compares both modes.
	NoReorder bool
	// NoStats makes the planner ignore table statistics and fall back to raw
	// row counts with default selectivities — the deterministic way to
	// exercise (and EXPLAIN) the stats-missing fallback.
	NoStats bool
	// SpillBudget bounds, in bytes, the resident working set of each
	// blocking operator in the streaming pipeline (grouped aggregation,
	// DISTINCT, UNION, external sort): past the budget the operator spills
	// its state to a temp file and finishes with a streaming merge. Zero
	// selects the default (8 MiB per operator). INTERSECT/EXCEPT hold one
	// in-memory entry per distinct right-operand row regardless of budget.
	SpillBudget int

	// OnTxBegin / OnTxEnd, when both set (core wires them into every
	// session), observe transaction lifecycle: Begin reports the new Tx
	// before it is handed out, and every Commit/Rollback (watcher
	// auto-rollback included) reports the end. The embedding database uses
	// the pair to track open transactions so Close can roll back a leaked
	// one instead of deadlocking on the lock it holds.
	OnTxBegin func(*Tx)
	OnTxEnd   func(*Tx)

	// txMu guards tx, the session's open explicit transaction (nil outside
	// BEGIN..COMMIT).
	txMu sync.Mutex
	tx   *Tx
}

// readOnlyStmt reports whether the statement only reads database state and
// therefore needs no write latches or WAL frame.
func readOnlyStmt(stmt sqlparse.Statement) bool {
	switch stmt.(type) {
	case *sqlparse.SelectStmt, *sqlparse.ShowPendingStmt, *sqlparse.ExplainStmt:
		return true
	default:
		return false
	}
}

// ARow is one result row: values plus, per output column, the annotations
// propagated to that cell.
type ARow struct {
	Values value.Row
	Anns   [][]*annotation.Annotation
}

// AnnotationsFlat returns every distinct annotation attached to the row.
func (r ARow) AnnotationsFlat() []*annotation.Annotation {
	seen := map[int64]bool{}
	var out []*annotation.Annotation
	for _, cell := range r.Anns {
		for _, a := range cell {
			// Synthetic annotations (e.g. outdated marks) have ID 0 and are
			// kept individually; stored annotations are deduplicated by ID.
			if a.ID != 0 {
				if seen[a.ID] {
					continue
				}
				seen[a.ID] = true
			}
			out = append(out, a)
		}
	}
	return out
}

// Result is the outcome of executing one statement.
type Result struct {
	// Columns are the output column names (empty for DDL/DML).
	Columns []string
	// Rows are the result rows (empty for DDL/DML).
	Rows []ARow
	// Affected is the number of rows affected by DML.
	Affected int
	// Message summarises DDL/utility statements.
	Message string
}

// Exec parses and executes a single A-SQL statement, materializing the full
// result. It is a compatibility wrapper that drains a Query cursor; use
// Query to stream large results and bind `?` placeholders.
func (s *Session) Exec(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.drainStmt(stmt)
}

// ExecAll parses and executes a semicolon-separated script, returning the
// result of each statement.
func (s *Session) ExecAll(sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, stmt := range stmts {
		res, err := s.drainStmt(stmt)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// drainStmt executes a parsed statement through the cursor layer and drains
// it into a materialized Result.
func (s *Session) drainStmt(stmt sqlparse.Statement) (*Result, error) {
	rows, err := s.queryStmt(context.Background(), stmt, nil, nil)
	if err != nil {
		return nil, err
	}
	return rows.materialize()
}

// ExecStmt executes a parsed statement (taking the session lock when one is
// wired) and materializes the full result.
func (s *Session) ExecStmt(stmt sqlparse.Statement) (*Result, error) {
	return s.drainStmt(stmt)
}

// execStmt dispatches a parsed statement. The caller must already hold the
// statement's latches; params carry the bound placeholder arguments (nil
// when the statement has none) and prep, when non-nil, is the prepared
// statement being executed, whose cached plan UPDATE and DELETE reuse.
func (s *Session) execStmt(ctx context.Context, stmt sqlparse.Statement, params value.Row, prep *Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		// Only a NoOptimize session gets here (queryStmt and Tx.queryStmt
		// stream every other SELECT): this is the reference executor.
		return s.execSelect(ctx, st, params)
	case *sqlparse.InsertStmt:
		return s.execInsert(ctx, st, params)
	case *sqlparse.UpdateStmt:
		return s.execUpdate(ctx, st, params, prep)
	case *sqlparse.DeleteStmt:
		return s.execDelete(ctx, st, params, prep)
	case *sqlparse.CreateTableStmt:
		return s.execCreateTable(st)
	case *sqlparse.DropTableStmt:
		return s.execDropTable(st)
	case *sqlparse.CreateIndexStmt:
		return s.execCreateIndex(st)
	case *sqlparse.CreateAnnotationTableStmt:
		return s.execCreateAnnotationTable(st)
	case *sqlparse.DropAnnotationTableStmt:
		return s.execDropAnnotationTable(st)
	case *sqlparse.AddAnnotationStmt:
		return s.execAddAnnotation(ctx, st, params)
	case *sqlparse.ArchiveAnnotationStmt:
		return s.execArchiveRestore(ctx, st, params)
	case *sqlparse.StartContentApprovalStmt:
		return s.execStartApproval(st)
	case *sqlparse.StopContentApprovalStmt:
		return s.execStopApproval(st)
	case *sqlparse.GrantStmt:
		return s.execGrantRevoke(st)
	case *sqlparse.ApproveStmt:
		return s.execApprove(st)
	case *sqlparse.ShowPendingStmt:
		return s.execShowPending(st)
	case *sqlparse.ExplainStmt:
		return s.execExplain(ctx, st, params)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

func (s *Session) require(table string, priv authz.Privilege) error {
	if !s.EnforceAuth || s.Auth == nil {
		return nil
	}
	return s.Auth.Require(s.User, table, priv)
}

// --- DDL ---------------------------------------------------------------------------

func (s *Session) execCreateTable(st *sqlparse.CreateTableStmt) (*Result, error) {
	schema := &catalog.Schema{Name: st.Table}
	for _, col := range st.Columns {
		schema.Columns = append(schema.Columns, catalog.Column{
			Name: col.Name, Type: col.Type, NotNull: col.NotNull,
		})
		if col.PrimaryKey {
			schema.PrimaryKey = col.Name
		}
	}
	if _, err := s.Eng.CreateTable(schema); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s created", st.Table)}, nil
}

func (s *Session) execDropTable(st *sqlparse.DropTableStmt) (*Result, error) {
	if err := s.Eng.DropTable(st.Table); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s dropped", st.Table)}, nil
}

func (s *Session) execCreateIndex(st *sqlparse.CreateIndexStmt) (*Result, error) {
	tbl, err := s.Eng.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if err := tbl.CreateIndex(st.Column); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("index on %s(%s) created", st.Table, st.Column)}, nil
}

func (s *Session) execCreateAnnotationTable(st *sqlparse.CreateAnnotationTableStmt) (*Result, error) {
	if err := s.Ann.CreateAnnotationTable(st.UserTable, st.Name, st.Category, false); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("annotation table %s created on %s", st.Name, st.UserTable)}, nil
}

func (s *Session) execDropAnnotationTable(st *sqlparse.DropAnnotationTableStmt) (*Result, error) {
	if err := s.Ann.DropAnnotationTable(st.UserTable, st.Name); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("annotation table %s dropped from %s", st.Name, st.UserTable)}, nil
}

// --- DML ---------------------------------------------------------------------------

// DML cancellation contract: the context is honored while matching rows
// (the long read phase) AND between row writes. Every statement runs inside
// a transaction (the session's explicit one, or the implicit auto-commit
// transaction the cursor layer wraps around it), so an abort mid-write no
// longer strands a partial update — the undo log rolls the statement's
// applied rows back before the error is returned.
func (s *Session) execInsert(ctx context.Context, st *sqlparse.InsertStmt, params value.Row) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.require(st.Table, authz.PrivInsert); err != nil {
		return nil, err
	}
	tbl, err := s.Eng.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	affected := 0
	for _, exprRow := range st.Rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := make(value.Row, len(schema.Columns))
		for i := range row {
			row[i] = value.NewNull()
		}
		if len(st.Columns) == 0 {
			if len(exprRow) != len(schema.Columns) {
				return nil, fmt.Errorf("%w: INSERT expects %d values, got %d",
					catalog.ErrSchemaMismatch, len(schema.Columns), len(exprRow))
			}
			for i, e := range exprRow {
				v, err := s.evalConst(e, params)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		} else {
			if len(exprRow) != len(st.Columns) {
				return nil, fmt.Errorf("%w: INSERT column/value count mismatch", catalog.ErrSchemaMismatch)
			}
			for i, colName := range st.Columns {
				idx := schema.ColumnIndex(colName)
				if idx < 0 {
					return nil, fmt.Errorf("%w: %s.%s", catalog.ErrColumnNotFound, st.Table, colName)
				}
				v, err := s.evalConst(exprRow[i], params)
				if err != nil {
					return nil, err
				}
				row[idx] = v
			}
		}
		rowID, err := tbl.Insert(row)
		if err != nil {
			return nil, err
		}
		affected++
		s.afterWrite(authz.OpInsert, tbl, rowID, nil, row, schema.ColumnNames())
	}
	return &Result{Affected: affected, Message: fmt.Sprintf("%d row(s) inserted", affected)}, nil
}

func (s *Session) execUpdate(ctx context.Context, st *sqlparse.UpdateStmt, params value.Row, prep *Stmt) (*Result, error) {
	if err := s.require(st.Table, authz.PrivUpdate); err != nil {
		return nil, err
	}
	plan, rows, err := s.mutationRows(ctx, st, params, prep)
	if err != nil {
		return nil, err
	}
	tbl := plan.sources[0].tbl
	changedCols := make([]string, len(st.Set))
	for i, set := range st.Set {
		changedCols[i] = set.Column
	}
	for _, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowID, oldRow := r.origins[0].rowID, r.values
		newRow := oldRow.Clone()
		for i, set := range st.Set {
			v, err := s.evalRowExpr(set.Value, tbl, oldRow, params)
			if err != nil {
				return nil, err
			}
			newRow[plan.setCols[i]] = v
		}
		if err := tbl.Update(rowID, newRow); err != nil {
			return nil, err
		}
		s.afterWrite(authz.OpUpdate, tbl, rowID, oldRow, newRow, changedCols)
	}
	return &Result{Affected: len(rows), Message: fmt.Sprintf("%d row(s) updated", len(rows))}, nil
}

func (s *Session) execDelete(ctx context.Context, st *sqlparse.DeleteStmt, params value.Row, prep *Stmt) (*Result, error) {
	if err := s.require(st.Table, authz.PrivDelete); err != nil {
		return nil, err
	}
	plan, rows, err := s.mutationRows(ctx, st, params, prep)
	if err != nil {
		return nil, err
	}
	tbl := plan.sources[0].tbl
	cols := tbl.Schema().ColumnNames()
	for _, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowID := r.origins[0].rowID
		if err := tbl.Delete(rowID); err != nil {
			return nil, err
		}
		s.afterWrite(authz.OpDelete, tbl, rowID, r.values, nil, cols)
	}
	return &Result{Affected: len(rows), Message: fmt.Sprintf("%d row(s) deleted", len(rows))}, nil
}

// mutationRows is the read phase of an UPDATE or DELETE: it plans the
// statement (planOf — a prepared statement plans once) and drains the
// planned pipeline for every matching (RowID, row) before the first write,
// so no write ever goes through an open scan. The statement holds its
// table's write latch, so the pipeline reads the current state (no snapshot)
// and each row it returns is the row's before-image — the write phase does
// not fetch it again. The scan honors context cancellation.
func (s *Session) mutationRows(ctx context.Context, stmt sqlparse.Statement, params value.Row, prep *Stmt) (*stmtPlan, []execRow, error) {
	plan, err := s.planOf(stmt, prep)
	if err != nil {
		return nil, nil, err
	}
	it, err := s.buildPipeline(ctx, &plan.phys, plan.bindings, params, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	rows, err := drainIter(it)
	return plan, rows, err
}

// afterWrite runs the cross-cutting concerns of a completed write: the
// content-approval log and the dependency cascade.
func (s *Session) afterWrite(kind authz.OpKind, tbl *storage.Table, rowID int64, oldRow, newRow value.Row, changedCols []string) {
	if s.Auth != nil && s.Auth.Monitored(tbl.Name(), changedCols...) {
		_, _ = s.Auth.RecordOperation(s.User, kind, tbl.Name(), rowID, oldRow, newRow)
	}
	if s.Dep != nil && kind != authz.OpDelete {
		for _, col := range changedCols {
			_, _ = s.Dep.OnCellModified(tbl.Name(), rowID, col)
		}
	}
}

// evalConst evaluates an expression with no row context (literals,
// arithmetic over literals, and bound placeholders).
func (s *Session) evalConst(e sqlparse.Expr, params value.Row) (value.Value, error) {
	return evalExpr(e, func(col *sqlparse.ColumnExpr) (value.Value, error) {
		return value.Value{}, fmt.Errorf("%w: %s in constant context", ErrUnknownColumn, col.Column)
	}, nil, params)
}

// evalRowExpr evaluates an expression against a single table row.
func (s *Session) evalRowExpr(e sqlparse.Expr, tbl *storage.Table, row value.Row, params value.Row) (value.Value, error) {
	schema := tbl.Schema()
	return evalExpr(e, func(col *sqlparse.ColumnExpr) (value.Value, error) {
		if col.Table != "" && !strings.EqualFold(col.Table, tbl.Name()) && !strings.EqualFold(col.Table, "ANN") {
			return value.Value{}, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, col.Table, col.Column)
		}
		idx := schema.ColumnIndex(col.Column)
		if idx < 0 {
			return value.Value{}, fmt.Errorf("%w: %s", ErrUnknownColumn, col.Column)
		}
		return row[idx], nil
	}, nil, params)
}

// --- annotation commands --------------------------------------------------------------

// checkOnSelect enforces that the ON (SELECT ...) of an annotation command
// is row-selecting: its select list, FROM (with ANNOTATION), WHERE and
// AWHERE name a set of base-table cells. Clauses that would change which
// rows are named are rejected rather than ignored; ORDER BY and FILTER are
// accepted and have no effect on a set of cells.
func checkOnSelect(sel *sqlparse.SelectStmt) error {
	var clause string
	switch {
	case sel.SetOp != sqlparse.SetNone:
		clause = "a set operation (UNION/INTERSECT/EXCEPT)"
	case sel.Distinct:
		clause = "DISTINCT"
	case sel.Limit >= 0:
		clause = "LIMIT"
	case len(sel.GroupBy) > 0 || sel.Having != nil || sel.AHaving != nil:
		clause = "GROUP BY / HAVING / AHAVING"
	case hasAggregate(sel.Items):
		clause = "an aggregate"
	default:
		return nil
	}
	return fmt.Errorf("%w: %s in ON (SELECT ...); the select must name base-table rows", ErrUnsupported, clause)
}

// selectRegions runs the ON (SELECT ...) of an annotation command — the row
// stage of the planned pipeline, over the current state under the command's
// latches — and translates the rows and the select list into storage regions
// of the target user table.
func (s *Session) selectRegions(ctx context.Context, sel *sqlparse.SelectStmt, userTable string, params value.Row) ([]annotation.Region, error) {
	if err := checkOnSelect(sel); err != nil {
		return nil, err
	}
	plan, err := s.planQuery(sel, nil)
	if err != nil {
		return nil, err
	}
	it, err := s.rowStage(ctx, plan, sel.AWhere, params, nil, nil)
	if err != nil {
		return nil, err
	}
	tbl, err := s.Eng.Table(userTable)
	if err != nil {
		return nil, err
	}
	numCols := len(tbl.Schema().Columns)

	// Collect the RowIDs contributed by the target table and the ordinals of
	// the projected columns that belong to it.
	rowIDs := map[int64]bool{}
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for _, o := range r.origins {
			if strings.EqualFold(o.table, userTable) {
				rowIDs[o.rowID] = true
			}
		}
	}
	var ids []int64
	for id := range rowIDs {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, nil
	}
	colOrdinals := map[int]bool{}
	star := false
	for _, item := range plan.items {
		if item.star {
			star = true
			continue
		}
		if item.sourceTable != "" && strings.EqualFold(item.sourceTable, userTable) && item.sourceCol >= 0 {
			colOrdinals[item.sourceCol] = true
		}
	}
	var regions []annotation.Region
	if star || len(colOrdinals) == 0 {
		regions = annotation.RegionsForRows(tbl.Name(), ids, 0, numCols-1)
	} else {
		for ord := range colOrdinals {
			regions = append(regions, annotation.RegionsForRows(tbl.Name(), ids, ord, ord)...)
		}
	}
	return regions, nil
}

func (s *Session) execAddAnnotation(ctx context.Context, st *sqlparse.AddAnnotationStmt, params value.Row) (*Result, error) {
	total := 0
	for _, target := range st.Targets {
		regions, err := s.selectRegions(ctx, st.On, target.UserTable, params)
		if err != nil {
			return nil, err
		}
		if len(regions) == 0 {
			continue
		}
		if _, err := s.Ann.Add(target.UserTable, target.AnnTable, st.Body, s.User, regions); err != nil {
			return nil, err
		}
		total++
	}
	return &Result{Affected: total, Message: fmt.Sprintf("annotation added to %d table(s)", total)}, nil
}

func parseTimeBound(text string) (time.Time, error) {
	if text == "" {
		return time.Time{}, nil
	}
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
		if t, err := time.Parse(layout, text); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("exec: bad timestamp %q", text)
}

func (s *Session) execArchiveRestore(ctx context.Context, st *sqlparse.ArchiveAnnotationStmt, params value.Row) (*Result, error) {
	from, err := parseTimeBound(st.From)
	if err != nil {
		return nil, err
	}
	to, err := parseTimeBound(st.To)
	if err != nil {
		return nil, err
	}
	tr := annotation.TimeRange{From: from, To: to}
	total := 0
	for _, target := range st.Targets {
		regions, err := s.selectRegions(ctx, st.On, target.UserTable, params)
		if err != nil {
			return nil, err
		}
		var n int
		if st.Restore {
			n, err = s.Ann.Restore(target.UserTable, []string{target.AnnTable}, tr, regions)
		} else {
			n, err = s.Ann.Archive(target.UserTable, []string{target.AnnTable}, tr, regions)
		}
		if err != nil {
			return nil, err
		}
		total += n
	}
	verb := "archived"
	if st.Restore {
		verb = "restored"
	}
	return &Result{Affected: total, Message: fmt.Sprintf("%d annotation(s) %s", total, verb)}, nil
}

// --- authorization commands --------------------------------------------------------------

func (s *Session) execStartApproval(st *sqlparse.StartContentApprovalStmt) (*Result, error) {
	if s.Auth == nil {
		return nil, fmt.Errorf("%w: no authorization manager", ErrUnsupported)
	}
	if err := s.Auth.StartContentApproval(st.Table, st.Columns, st.Approver); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("content approval started on %s (approver %s)", st.Table, st.Approver)}, nil
}

func (s *Session) execStopApproval(st *sqlparse.StopContentApprovalStmt) (*Result, error) {
	if s.Auth == nil {
		return nil, fmt.Errorf("%w: no authorization manager", ErrUnsupported)
	}
	if err := s.Auth.StopContentApproval(st.Table, st.Columns); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("content approval stopped on %s", st.Table)}, nil
}

func (s *Session) execGrantRevoke(st *sqlparse.GrantStmt) (*Result, error) {
	if s.Auth == nil {
		return nil, fmt.Errorf("%w: no authorization manager", ErrUnsupported)
	}
	var privs []authz.Privilege
	for _, p := range st.Privileges {
		privs = append(privs, authz.Privilege(strings.ToUpper(p)))
	}
	if st.Revoke {
		s.Auth.Revoke(st.Principal, st.Table, privs...)
		return &Result{Message: fmt.Sprintf("revoked %s on %s from %s", strings.Join(st.Privileges, ","), st.Table, st.Principal)}, nil
	}
	s.Auth.Grant(st.Principal, st.Table, privs...)
	return &Result{Message: fmt.Sprintf("granted %s on %s to %s", strings.Join(st.Privileges, ","), st.Table, st.Principal)}, nil
}

func (s *Session) execApprove(st *sqlparse.ApproveStmt) (*Result, error) {
	if s.Auth == nil {
		return nil, fmt.Errorf("%w: no authorization manager", ErrUnsupported)
	}
	if st.Disapprove {
		affected, err := s.Auth.Disapprove(st.OpID, s.User)
		if err != nil {
			return nil, err
		}
		// Disapproval rolled data back: re-run the dependency cascade over the
		// restored rows so downstream values are re-marked.
		if s.Dep != nil {
			if op, err := s.Auth.Operation(st.OpID); err == nil {
				if tbl, err := s.Eng.Table(op.Table); err == nil {
					for _, rowID := range affected {
						for _, col := range tbl.Schema().ColumnNames() {
							_, _ = s.Dep.OnCellModified(op.Table, rowID, col)
						}
					}
				}
			}
		}
		return &Result{Affected: len(affected), Message: fmt.Sprintf("operation %d disapproved; inverse executed", st.OpID)}, nil
	}
	if err := s.Auth.Approve(st.OpID, s.User); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("operation %d approved", st.OpID)}, nil
}

func (s *Session) execShowPending(st *sqlparse.ShowPendingStmt) (*Result, error) {
	if s.Auth == nil {
		return nil, fmt.Errorf("%w: no authorization manager", ErrUnsupported)
	}
	res := &Result{Columns: []string{"op_id", "user", "table", "kind", "statement", "inverse", "status"}}
	for _, op := range s.Auth.Operations(st.Table, authz.StatusPending) {
		res.Rows = append(res.Rows, ARow{Values: value.Row{
			value.NewInt(op.ID), value.NewText(op.User), value.NewText(op.Table),
			value.NewText(string(op.Kind)), value.NewText(op.Statement),
			value.NewText(op.Inverse), value.NewText(string(op.Status)),
		}})
	}
	return res, nil
}
