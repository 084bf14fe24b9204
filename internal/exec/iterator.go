package exec

import (
	"context"
	"encoding/binary"
	"errors"

	"bdbms/internal/heap"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// This file implements the physical operators of the streaming SELECT
// executor. Each operator is a Volcano-style pull iterator: rows flow one at
// a time from table scans through filters and joins, so a query never
// materializes the cross product of its FROM tables the way the naive
// executor does. Rows carry only values and origins while inside the
// pipeline; annotations and outdated marks are attached lazily, to the rows
// that survive filtering, by decorateIter (rowStage in planner.go).
//
// Scan and join iterators check the query context on every Next call, so a
// canceled context aborts a long-running scan or join with ctx.Err()
// (typically context.Canceled) instead of running to completion.

// rowIter is the iterator interface every physical operator implements.
type rowIter interface {
	// Next returns the next row; ok is false at end of stream.
	Next() (row execRow, ok bool, err error)
}

// --- predicates ----------------------------------------------------------------------------

// compiledPred is one WHERE conjunct with every column reference resolved to
// its global value-slot index at plan time, so per-row evaluation is a slice
// index instead of a name lookup. Placeholders stay unresolved in the
// expression and are bound from params at evaluation time, which is what lets
// a prepared statement reuse the compiled predicate across executions.
type compiledPred struct {
	expr  sqlparse.Expr
	slots colSlots
}

// colSlots maps the column references of one conjunct to value slots. A
// conjunct has a handful of references, so a scanned slice is both smaller
// and faster per row than a map.
type colSlots []colSlot

type colSlot struct {
	col  *sqlparse.ColumnExpr
	slot int
}

func (cs colSlots) get(col *sqlparse.ColumnExpr) (int, bool) {
	for _, c := range cs {
		if c.col == col {
			return c.slot, true
		}
	}
	return 0, false
}

// eval evaluates the predicate against a row whose values start at the given
// global slot offset (0 for post-join rows, the source offset for rows still
// inside a single-table scan).
func (p compiledPred) eval(vals value.Row, offset int, params value.Row) (bool, error) {
	v, err := evalExpr(p.expr, func(col *sqlparse.ColumnExpr) (value.Value, error) {
		slot, ok := p.slots.get(col)
		if !ok {
			return value.Value{}, errUnresolvedSlot
		}
		return vals[slot-offset], nil
	}, nil, params)
	if err != nil {
		return false, err
	}
	return v.Type() == value.Bool && v.Bool(), nil
}

func evalPreds(preds []compiledPred, vals value.Row, offset int, params value.Row) (bool, error) {
	for _, p := range preds {
		ok, err := p.eval(vals, offset, params)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// --- scan ----------------------------------------------------------------------------------

// scanIter streams one table in ascending RowID order, applying the pushed
// single-table predicates before a row leaves the scan. The RowID list comes
// either from the heap (full scan) or from a B+-tree probe (index scan); in
// both cases it is sorted, so downstream operators see the same order.
//
// When snap is non-nil, every row fetch goes through the MVCC snapshot: the
// scan sees the committed state at cursor-open time no matter what writers
// do meanwhile. A nil snap reads the current heap — that is the mode for
// cursors inside an explicit transaction, whose latches exclude writers.
type scanIter struct {
	ctx    context.Context
	src    *sourcePlan
	ids    []int64
	params value.Row
	snap   *storage.Snapshot
	pos    int
}

func (it *scanIter) Next() (execRow, bool, error) {
	if err := it.ctx.Err(); err != nil {
		return execRow{}, false, err
	}
	for it.pos < len(it.ids) {
		// Re-check cancellation periodically inside the loop: a selective
		// predicate can reject long stretches of rows within one Next call.
		if it.pos&1023 == 1023 {
			if err := it.ctx.Err(); err != nil {
				return execRow{}, false, err
			}
		}
		rowID := it.ids[it.pos]
		it.pos++
		var vals value.Row
		var err error
		if it.snap != nil {
			vals, err = it.snap.Get(it.src.tbl, rowID)
		} else {
			vals, err = it.src.tbl.Get(rowID)
		}
		if errors.Is(err, storage.ErrRowNotFound) || errors.Is(err, heap.ErrNotFound) {
			// Row deleted between listing and fetch; mirror Table.Scan.
			continue
		}
		if err != nil {
			return execRow{}, false, err
		}
		ok, err := evalPreds(it.src.preds, vals, it.src.offset, it.params)
		if err != nil {
			return execRow{}, false, err
		}
		if !ok {
			continue
		}
		return execRow{
			values:  vals,
			origins: []origin{{table: it.src.tbl.Name(), rowID: rowID}},
		}, true, nil
	}
	return execRow{}, false, nil
}

// drainIter materializes the remainder of an iterator.
func drainIter(it rowIter) ([]execRow, error) {
	var out []execRow
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// --- filter --------------------------------------------------------------------------------

// filterIter applies post-join conjuncts to rows covering a prefix of the
// FROM sources (offset 0).
type filterIter struct {
	in     rowIter
	preds  []compiledPred
	params value.Row
}

func (it *filterIter) Next() (execRow, bool, error) {
	for {
		r, ok, err := it.in.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		keep, err := evalPreds(it.preds, r.values, 0, it.params)
		if err != nil {
			return execRow{}, false, err
		}
		if keep {
			return r, true, nil
		}
	}
}

// residualIter evaluates conjuncts the planner could not compile (aggregates,
// late-resolving references) exactly like the naive executor evaluates WHERE,
// but one row at a time so the streaming cursor stays lazy.
type residualIter struct {
	s        *Session
	in       rowIter
	exprs    []sqlparse.Expr
	bindings []binding
	params   value.Row
}

func (it *residualIter) Next() (execRow, bool, error) {
	for {
		r, ok, err := it.in.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		keep := true
		for _, e := range it.exprs {
			ok, err := it.s.evalBool(e, it.bindings, r, nil, it.params)
			if err != nil {
				return execRow{}, false, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			return r, true, nil
		}
	}
}

// --- joins ---------------------------------------------------------------------------------

// combineRows concatenates two partial rows into a fresh execRow. Values and
// origins are copied so joined rows never alias their inputs.
func combineRows(left, right execRow) execRow {
	vals := make(value.Row, 0, len(left.values)+len(right.values))
	vals = append(vals, left.values...)
	vals = append(vals, right.values...)
	origins := make([]origin, 0, len(left.origins)+len(right.origins))
	origins = append(origins, left.origins...)
	origins = append(origins, right.origins...)
	return execRow{values: vals, origins: origins}
}

// joinKeyCol is one column of an equi-join key: the value-slot index and the
// comparison class used to normalize the value before hashing.
type joinKeyCol struct {
	slot  int
	class compareClass
}

// appendJoinKey appends the hash-key encoding of v to dst. The encoding is
// normalized per comparison class so that two values for which Compare
// returns 0 (e.g. INT 1 and FLOAT 1.0, TEXT and SEQUENCE with equal bytes)
// produce identical keys — hash equality must agree exactly with the
// semantics of the `=` operator the join replaces. Each part is
// length-prefixed so composite keys cannot collide across boundaries.
// ok is false for NULL, which never joins.
func appendJoinKey(dst []byte, v value.Value, class compareClass) ([]byte, bool) {
	if v.IsNull() {
		return dst, false
	}
	switch class {
	case classNumeric:
		v = value.NewFloat(v.Float())
	case classString:
		v = value.NewText(v.Text())
	}
	k := v.EncodeKey(nil)
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	return append(dst, k...), true
}

func joinKey(buf []byte, vals value.Row, cols []joinKeyCol) ([]byte, bool) {
	buf = buf[:0]
	for _, kc := range cols {
		var ok bool
		buf, ok = appendJoinKey(buf, vals[kc.slot], kc.class)
		if !ok {
			return buf, false
		}
	}
	return buf, true
}

// hashJoinIter joins the streaming left input against a materialized build
// table over the right source. For each left row, matches are emitted in
// right-scan (RowID) order, so the output order equals what the naive
// filtered cross product produces.
type hashJoinIter struct {
	ctx      context.Context
	left     rowIter
	build    map[string][]execRow
	leftKey  []joinKeyCol // slots are global (into the left prefix row)
	cur      execRow
	matches  []execRow
	mpos     int
	keyBuf   []byte
	haveLeft bool
}

// newHashJoinIter builds the hash table over the right rows. rightKey slots
// are local to the right source's columns.
func newHashJoinIter(ctx context.Context, left rowIter, rightRows []execRow, leftKey, rightKey []joinKeyCol) *hashJoinIter {
	build := make(map[string][]execRow, len(rightRows))
	var buf []byte
	for _, r := range rightRows {
		var ok bool
		buf, ok = joinKey(buf, r.values, rightKey)
		if !ok {
			continue // NULL key never matches
		}
		build[string(buf)] = append(build[string(buf)], r)
	}
	return &hashJoinIter{ctx: ctx, left: left, build: build, leftKey: leftKey}
}

func (it *hashJoinIter) Next() (execRow, bool, error) {
	if len(it.build) == 0 {
		// Empty build side: no left row can match, so don't drain the left
		// input (e.g. after an index point-miss on the right table).
		return execRow{}, false, nil
	}
	if err := it.ctx.Err(); err != nil {
		return execRow{}, false, err
	}
	for {
		if it.haveLeft && it.mpos < len(it.matches) {
			right := it.matches[it.mpos]
			it.mpos++
			return combineRows(it.cur, right), true, nil
		}
		l, ok, err := it.left.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		it.cur = l
		it.haveLeft = true
		it.mpos = 0
		var keyOK bool
		it.keyBuf, keyOK = joinKey(it.keyBuf, l.values, it.leftKey)
		if !keyOK {
			it.matches = nil
			continue
		}
		it.matches = it.build[string(it.keyBuf)]
	}
}

// crossJoinIter is the block nested-loop fallback when no equi-join conjunct
// connects the next source: the right side is materialized once and replayed
// per left row.
type crossJoinIter struct {
	ctx      context.Context
	left     rowIter
	right    []execRow
	cur      execRow
	rpos     int
	haveLeft bool
}

func (it *crossJoinIter) Next() (execRow, bool, error) {
	if err := it.ctx.Err(); err != nil {
		return execRow{}, false, err
	}
	for {
		if it.haveLeft && it.rpos < len(it.right) {
			right := it.right[it.rpos]
			it.rpos++
			return combineRows(it.cur, right), true, nil
		}
		if len(it.right) == 0 {
			return execRow{}, false, nil
		}
		l, ok, err := it.left.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		it.cur = l
		it.haveLeft = true
		it.rpos = 0
	}
}
