package exec

import (
	"context"
	"errors"
	"math"

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

// drainIter materializes the remainder of an iterator, boxing every row: it
// keeps them past the input's next pull.
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
		r.vals()
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
		keep, err := evalPreds(it.preds, r.vals(), 0, it.params)
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
			ok, err := it.s.evalBool(e, it.bindings, r, it.params)
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
// origins are copied so joined rows never alias their inputs; the left row
// is boxed in place, once for all its matches.
func combineRows(left *execRow, right execRow) execRow {
	lv, rv := left.vals(), right.vals()
	vals := make(value.Row, 0, len(lv)+len(rv))
	vals = append(vals, lv...)
	vals = append(vals, rv...)
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

// appendJoinKey appends v's join key to dst: v normalized to its comparison
// class, then keyed by appendHashKey like every other hash operator. The
// normalization makes values `=` calls equal across types share a key — INT 1
// and FLOAT 1.0 (numericJoinKey), TEXT and SEQUENCE with equal bytes — so
// hash equality agrees exactly with the `=` the join replaces. A warm buffer
// allocates nothing. ok is false for NULL, which never joins.
func appendJoinKey(dst []byte, v value.Value, class compareClass) ([]byte, bool) {
	if v.IsNull() {
		return dst, false
	}
	switch class {
	case classNumeric:
		v = numericJoinKey(v)
	case classString:
		v = value.NewText(v.Text())
	}
	return appendHashKey(dst, v), true
}

// numericJoinKey maps a number to the one form every number equal to it
// takes: an INT that float64 holds exactly (|i| <= 2^53) and every
// non-integral or out-of-range FLOAT as a FLOAT, a larger INT and an integral
// FLOAT equal to one as the INT. Converting every INT to FLOAT instead would
// round INTs above 2^53 together.
func numericJoinKey(v value.Value) value.Value {
	const exact = 1 << 53
	if v.Type() == value.Int {
		if i := v.Int(); i >= -exact && i <= exact {
			return value.NewFloat(float64(i))
		}
		return v
	}
	if f := v.Float(); (f > exact || f < -exact) && f < 1<<63 && f >= -1<<63 && f == math.Trunc(f) {
		return value.NewInt(int64(f))
	}
	return v
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
	ctx  context.Context
	left rowIter
	// The build side is the drained right rows, in scan order, and a chain
	// through them per key: build maps a key to its first row, next[i] is
	// the row after row i with the same key (-1 ends the chain).
	right   []execRow
	build   map[string]int32
	next    []int32
	leftKey []joinKeyCol // slots are global (into the left prefix row)
	cur     execRow
	match   int32 // the current left row's next match in right, -1 for none
	keyBuf  []byte
}

// newHashJoinIter builds the hash table over the right rows. rightKey slots
// are local to the right source's columns.
func newHashJoinIter(ctx context.Context, left rowIter, rightRows []execRow, leftKey, rightKey []joinKeyCol) *hashJoinIter {
	build := make(map[string]int32, len(rightRows))
	next := make([]int32, len(rightRows))
	var buf []byte
	// Building from the last row back puts each row at the head of its
	// key's chain, so every chain runs in ascending RowID order.
	for i := len(rightRows) - 1; i >= 0; i-- {
		next[i] = -1
		var ok bool
		buf, ok = joinKey(buf, rightRows[i].vals(), rightKey)
		if !ok {
			continue // NULL key never matches
		}
		if head, ok := build[string(buf)]; ok {
			next[i] = head
		}
		build[string(buf)] = int32(i)
	}
	return &hashJoinIter{ctx: ctx, left: left, right: rightRows, build: build, next: next, leftKey: leftKey, match: -1}
}

// probeGate is the keep rule of a batch scan feeding this join's left input
// directly: a probe row whose key is NULL or absent from the build table
// joins nothing, so the scan need not box it. The left key slots are in the
// execution layout, where the first source sits at slot 0, so they index the
// batch's vectors directly.
func (it *hashJoinIter) probeGate() func(*batch, int32) bool {
	var buf []byte
	return func(b *batch, i int32) bool {
		buf = buf[:0]
		for _, kc := range it.leftKey {
			var ok bool
			if buf, ok = appendJoinKey(buf, b.vecs[kc.slot].valueAt(i), kc.class); !ok {
				return false
			}
		}
		_, hit := it.build[string(buf)]
		return hit
	}
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
		if it.match >= 0 {
			right := it.right[it.match]
			it.match = it.next[it.match]
			return combineRows(&it.cur, right), true, nil
		}
		l, ok, err := it.left.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		it.cur = l
		var keyOK bool
		it.keyBuf, keyOK = joinKey(it.keyBuf, it.cur.vals(), it.leftKey)
		if !keyOK {
			continue
		}
		if head, hit := it.build[string(it.keyBuf)]; hit {
			it.match = head
		}
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
			return combineRows(&it.cur, right), true, nil
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
