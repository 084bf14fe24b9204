package exec

// EXPLAIN rendering: a deterministic, line-per-operator description of the
// plan a statement would execute with, returned as result rows (one "plan"
// column). EXPLAIN never executes its target; for a SELECT it runs the real
// planner — the same planFor the cursor layer uses, so the explanation can
// never diverge from execution — and renders the join pipeline in execution
// order with the cost model's row estimates, then the post-join stages. An
// UPDATE or DELETE renders the pipeline of its read phase the same way.
//
// The rendering is byte-stable for a fixed database state; the goldens under
// testdata/explain pin it. Two dynamic decisions are rendered statically:
// sort elision shows the intent (the executor still falls back to a real
// sort when the snapshot check fails at run time), and the Top-N choice uses
// the same estimate the cursor uses.

import (
	"context"
	"fmt"
	"math"
	"strings"

	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
)

// execExplain renders the plan of the target statement as result rows. It
// routes through the read-only statement path, so EXPLAIN behaves
// identically for bare statements, inside transactions, prepared, over the
// wire and in the CLI.
func (s *Session) execExplain(_ context.Context, st *sqlparse.ExplainStmt, _ value.Row) (*Result, error) {
	text, err := s.explainStmt(st.Target)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(text, "\n") {
		res.Rows = append(res.Rows, ARow{Values: value.Row{value.NewText(line)}})
	}
	return res, nil
}

// explainStmt renders the plan of one statement as newline-joined lines.
func (s *Session) explainStmt(stmt sqlparse.Statement) (string, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return s.explainSelect(st)
	case *sqlparse.UpdateStmt:
		return s.explainMutation("Update", st.Table, st.Where)
	case *sqlparse.DeleteStmt:
		return s.explainMutation("Delete", st.Table, st.Where)
	case *sqlparse.InsertStmt:
		return fmt.Sprintf("Insert(%s) rows=%d", st.Table, len(st.Rows)), nil
	case *sqlparse.ExplainStmt:
		return s.explainStmt(st.Target)
	default:
		return "Execute(" + stmtName(stmt) + ")", nil
	}
}

// explainSelect renders the physical plan of a SELECT. The plan-shape tests
// and the EXPLAIN goldens both consume this rendering.
func (s *Session) explainSelect(sel *sqlparse.SelectStmt) (string, error) {
	plan, err := s.planFor(sel)
	if err != nil {
		return "", err
	}
	lines, err := s.explainSelectLines(sel, plan)
	if err != nil {
		return "", err
	}
	return strings.Join(lines, "\n"), nil
}

func (s *Session) explainSelectLines(sel *sqlparse.SelectStmt, plan *stmtPlan) ([]string, error) {
	proj := newProjector(s, plan.items, plan.bindings, nil)
	outputOnly := sel.Distinct || sel.SetOp != sqlparse.SetNone
	var orderKeys []orderKey
	if len(sel.OrderBy) > 0 {
		var err error
		orderKeys, err = buildOrderPlan(sel.OrderBy, proj.cols, plan.bindings, outputOnly)
		if err != nil {
			return nil, err
		}
	}
	phys := &plan.phys
	lines := pipelineLines(phys)
	if sel.AWhere != nil {
		lines = append(lines, "AWhere")
	}
	if len(sel.GroupBy) > 0 || hasAggregate(sel.Items) || sel.Having != nil {
		lines = append(lines, "Aggregate")
		if sel.Having != nil {
			lines = append(lines, "Having")
		}
	}
	if sel.AHaving != nil {
		lines = append(lines, "AHaving")
	}
	if sel.Filter != nil {
		lines = append(lines, "AnnFilter")
	}
	lines = append(lines, "Project("+strings.Join(proj.cols, ", ")+")")
	if sel.Distinct {
		lines = append(lines, "Distinct")
	}
	if sel.SetOp != sqlparse.SetNone {
		opName := "Except"
		switch sel.SetOp {
		case sqlparse.SetUnion:
			opName = "Union"
		case sqlparse.SetIntersect:
			opName = "Intersect"
		}
		lines = append(lines, opName+":")
		sub, err := s.explainSelectLines(sel.SetRight, plan.right)
		if err != nil {
			return nil, err
		}
		for _, l := range sub {
			lines = append(lines, "  "+l)
		}
	}
	if len(orderKeys) > 0 {
		col, elide := "", false
		if !outputOnly {
			col, elide = sortElisionColumn(sel, phys, proj, orderKeys)
		}
		switch {
		case elide:
			lines = append(lines, fmt.Sprintf("IndexOrder(%s.%s) (sort elided)",
				phys.sources[0].tbl.Name(), col))
		case topNWins(sel.Limit, phys):
			lines = append(lines, fmt.Sprintf("TopN(%d: %s)", sel.Limit, orderByDesc(sel.OrderBy)))
		default:
			lines = append(lines, "Sort("+orderByDesc(sel.OrderBy)+")")
		}
	}
	if sel.Limit >= 0 {
		lines = append(lines, fmt.Sprintf("Limit(%d)", sel.Limit))
	}
	return lines, nil
}

// pipelineLines renders the planned FROM/WHERE pipeline — scans, joins,
// restore, residual — one line per operator in execution order. Every
// statement that pulls rows from the pipeline (SELECT, UPDATE, DELETE)
// explains its source with it.
func pipelineLines(phys *physicalPlan) []string {
	var lines []string
	for i, si := range phys.order {
		src := phys.sources[si]
		if i == 0 {
			lines = append(lines, fmt.Sprintf("%s%s rows~%d%s",
				scanDesc(src), filterMark(len(src.preds) > 0), roundRows(phys.srcRows[si]), noStatsMark(phys, si)))
			continue
		}
		step := phys.steps[i-1]
		op := "NestedLoop"
		if len(step.leftKey) > 0 {
			op = "HashJoin"
		}
		lines = append(lines, fmt.Sprintf("%s(%s%s)%s rows~%d%s",
			op, src.tbl.Name(), describeScan(src), filterMark(len(step.post) > 0),
			roundRows(phys.stepRows[i-1]), noStatsMark(phys, si)))
	}
	if phys.reordered {
		lines = append(lines, "Restore(syntactic order)")
	}
	if len(phys.residual) > 0 {
		lines = append(lines, "Residual")
	}
	return lines
}

// explainMutation renders the read phase of an UPDATE or DELETE: the plan of
// `SELECT * FROM table WHERE where`, pushed down by the same pushDown the
// mutation executes with and costed for the rows~N estimate (EXPLAIN holds
// no latch, so reading the statistics is free here).
func (s *Session) explainMutation(verb, table string, where sqlparse.Expr) (string, error) {
	plan, err := s.planFor(&sqlparse.SelectStmt{From: []sqlparse.TableRef{{Table: table}}, Where: where, Limit: -1})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s(%s)\n  via %s", verb, plan.sources[0].tbl.Name(),
		strings.Join(pipelineLines(&plan.phys), "\n  ")), nil
}

func filterMark(filtered bool) string {
	if filtered {
		return " filter"
	}
	return ""
}

func noStatsMark(p *physicalPlan, si int) string {
	if si < len(p.tstats) && p.tstats[si] == nil {
		return " [no stats]"
	}
	return ""
}

func roundRows(f float64) int64 {
	return int64(math.Round(f))
}

// orderByDesc renders an ORDER BY list, e.g. "Score DESC, GName".
func orderByDesc(items []sqlparse.OrderItem) string {
	parts := make([]string, 0, len(items))
	for _, o := range items {
		name := "?"
		if ce, ok := o.Expr.(*sqlparse.ColumnExpr); ok {
			name = ce.Column
			if ce.Table != "" {
				name = ce.Table + "." + name
			}
		}
		if o.Desc {
			name += " DESC"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, ", ")
}

// stmtName names a non-plannable statement for the generic EXPLAIN line.
func stmtName(stmt sqlparse.Statement) string {
	switch stmt.(type) {
	case *sqlparse.CreateTableStmt:
		return "CREATE TABLE"
	case *sqlparse.CreateIndexStmt:
		return "CREATE INDEX"
	case *sqlparse.DropTableStmt:
		return "DROP TABLE"
	case *sqlparse.CreateAnnotationTableStmt:
		return "CREATE ANNOTATION TABLE"
	case *sqlparse.DropAnnotationTableStmt:
		return "DROP ANNOTATION TABLE"
	case *sqlparse.AddAnnotationStmt:
		return "ADD ANNOTATION"
	case *sqlparse.ArchiveAnnotationStmt:
		return "ARCHIVE/RESTORE ANNOTATION"
	case *sqlparse.StartContentApprovalStmt:
		return "START CONTENT APPROVAL"
	case *sqlparse.StopContentApprovalStmt:
		return "STOP CONTENT APPROVAL"
	case *sqlparse.GrantStmt:
		return "GRANT/REVOKE"
	case *sqlparse.ApproveStmt:
		return "APPROVE"
	case *sqlparse.ShowPendingStmt:
		return "SHOW PENDING"
	case *sqlparse.BeginStmt:
		return "BEGIN"
	case *sqlparse.CommitStmt:
		return "COMMIT"
	case *sqlparse.RollbackStmt:
		return "ROLLBACK"
	case *sqlparse.SavepointStmt:
		return "SAVEPOINT"
	default:
		return "statement"
	}
}
