package exec

// ORDER BY execution: a shared order plan (used by both the naive reference
// and the streaming pipeline, so the two paths cannot diverge), an external
// merge-sort iterator with bounded memory, and a Top-N heap operator the
// planner selects for ORDER BY + LIMIT.
//
// An order key resolves in two steps: first against the output columns by
// name (the only resolution the engine historically supported), then — for
// SELECTs without DISTINCT or a set operation — against the FROM bindings,
// which is what allows ordering by columns that are not projected. With
// DISTINCT or a set operation the pre-projection row no longer exists when
// ordering runs, so binding-resolved keys are rejected, as standard SQL does.

import (
	"fmt"
	"sort"
	"strings"

	"bdbms/internal/heap"
	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
)

// orderKey is one resolved ORDER BY item.
type orderKey struct {
	// outIdx >= 0 sorts by that projected output column.
	outIdx int
	// slot is the pre-projection value slot when outIdx < 0.
	slot int
	desc bool
}

// buildOrderPlan resolves the ORDER BY list against the output columns and,
// unless outputOnly, the binding layout.
func buildOrderPlan(orderBy []sqlparse.OrderItem, cols []string, bindings []binding, outputOnly bool) ([]orderKey, error) {
	var keys []orderKey
	for _, item := range orderBy {
		col, ok := item.Expr.(*sqlparse.ColumnExpr)
		if !ok {
			return nil, fmt.Errorf("%w: ORDER BY supports column references only", ErrUnsupported)
		}
		key := orderKey{outIdx: -1, slot: -1, desc: item.Desc}
		for i, name := range cols {
			if strings.EqualFold(name, col.Column) {
				key.outIdx = i
				break
			}
		}
		if key.outIdx < 0 {
			idx, _, err := resolveColumn(bindings, col)
			if err != nil {
				return nil, fmt.Errorf("%w: ORDER BY column %s", ErrUnknownColumn, col.Column)
			}
			if outputOnly {
				return nil, fmt.Errorf("%w: ORDER BY column %s must appear in the SELECT list when DISTINCT or a set operation is used", ErrUnsupported, col.Column)
			}
			key.slot = idx
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// sortElisionColumn reports whether the SELECT's ordering can be satisfied by
// scanning its single source in index order instead of sorting, and names the
// ordering column. Eligible shape: one source read by full scan (probes
// already subset the heap in probe order), no grouping or aggregation, and a
// single ascending key resolving to a NOT NULL indexed table column. NOT NULL
// matters because B+-trees omit NULL keys, so only then does the index stream
// every live row; ascending-only because the tree ascends. EncodeKey is
// order-preserving per type and the index yields RowID-ascending runs within
// equal keys — exactly the order a stable sort over the RowID-ordered scan
// produces, so elision is invisible to the equivalence suite.
func sortElisionColumn(sel *sqlparse.SelectStmt, phys *physicalPlan, proj *projector, orderKeys []orderKey) (string, bool) {
	if len(phys.sources) != 1 || len(phys.steps) != 0 {
		return "", false
	}
	if len(sel.GroupBy) > 0 || hasAggregate(sel.Items) || sel.Having != nil {
		return "", false
	}
	if len(orderKeys) != 1 || orderKeys[0].desc {
		return "", false
	}
	src := phys.sources[0]
	if !src.access.fullScan() {
		return "", false
	}
	slot := orderKeys[0].slot
	if orderKeys[0].outIdx >= 0 {
		// Only a star-expanded column or a plain column reference is a raw
		// slot value; computed expressions keep the sort.
		var ok bool
		if slot, ok = proj.sourceSlot(orderKeys[0].outIdx); !ok {
			return "", false
		}
	}
	ci := slot - src.offset
	schema := src.tbl.Schema()
	if ci < 0 || ci >= len(schema.Columns) {
		return "", false
	}
	col := schema.Columns[ci]
	if !col.NotNull || !src.tbl.HasIndex(col.Name) {
		return "", false
	}
	return col.Name, true
}

// compareKeyRows orders two extracted key rows. Incomparable values (type
// mismatch) are treated as equal on that key, exactly like the reference
// sort's comparator.
func compareKeyRows(a, b value.Row, keys []orderKey) int {
	for i, k := range keys {
		c, err := a[i].Compare(b[i])
		if err != nil || c == 0 {
			continue
		}
		if k.desc {
			return -c
		}
		return c
	}
	return 0
}

// --- projection stages ----------------------------------------------------------------------

// aRowIter is the post-projection iterator interface: DISTINCT, set
// operations and ordering operate on projected rows.
type aRowIter interface {
	Next() (ARow, bool, error)
}

// projectIter projects pipeline rows one at a time; the basic streaming
// SELECT is scan -> decorate -> project. A cursor whose top stage it is
// pulls its input directly instead (Rows.pull), to box values only when
// they are read.
type projectIter struct {
	in   rowIter
	proj *projector
}

func (it *projectIter) Next() (ARow, bool, error) {
	r, ok, err := it.in.Next()
	if err != nil || !ok {
		return ARow{}, false, err
	}
	out, err := it.proj.row(r)
	if err != nil {
		return ARow{}, false, err
	}
	return out, true, nil
}

// keyedRow pairs a projected row with its extracted sort key.
type keyedRow struct {
	row ARow
	key value.Row
}

// keyedIter feeds the sort operators.
type keyedIter interface {
	Next() (keyedRow, bool, error)
}

// projectKeyIter projects and extracts sort keys from both worlds: output
// columns from the projected row, binding-resolved keys from the
// pre-projection row (which is how ORDER BY on non-projected columns works).
type projectKeyIter struct {
	in   rowIter
	proj *projector
	keys []orderKey
}

func (it *projectKeyIter) Next() (keyedRow, bool, error) {
	r, ok, err := it.in.Next()
	if err != nil || !ok {
		return keyedRow{}, false, err
	}
	out, err := it.proj.row(r)
	if err != nil {
		return keyedRow{}, false, err
	}
	key := make(value.Row, len(it.keys))
	for i, k := range it.keys {
		if k.outIdx >= 0 {
			key[i] = out.Values[k.outIdx]
		} else {
			key[i] = r.val(k.slot)
		}
	}
	return keyedRow{row: out, key: key}, true, nil
}

// outColKeyIter extracts sort keys from already-projected rows (the ordering
// stage above DISTINCT and set operations, where only output columns are
// legal keys).
type outColKeyIter struct {
	in   aRowIter
	keys []orderKey
}

func (it *outColKeyIter) Next() (keyedRow, bool, error) {
	row, ok, err := it.in.Next()
	if err != nil || !ok {
		return keyedRow{}, false, err
	}
	key := make(value.Row, len(it.keys))
	for i, k := range it.keys {
		key[i] = row.Values[k.outIdx]
	}
	return keyedRow{row: row, key: key}, true, nil
}

// --- external merge sort --------------------------------------------------------------------

// sortedBatchRow is one row of the in-memory sort batch.
type sortedBatchRow struct {
	keyedRow
	seq uint64
}

// sortIter is the external merge-sort operator: rows accumulate in an
// in-memory batch up to the budget; each full batch is sorted and written as
// a run on the operator's temp file; the output phase k-way-merges the runs
// (ties broken by input sequence, which is what makes the sort stable).
type sortIter struct {
	in     keyedIter
	keys   []orderKey
	budget int
	sf     *spillFile

	batch      []sortedBatchRow
	batchBytes int
	runs       []heap.Run
	seq        uint64
	encBuf     []byte

	started bool
	pos     int            // in-memory emit cursor
	heads   []*sortRunHead // merge emit state
}

func newSortIter(in keyedIter, keys []orderKey, budget int, sf *spillFile) *sortIter {
	return &sortIter{in: in, keys: keys, budget: budget, sf: sf}
}

func (s *sortIter) less(a, b *sortedBatchRow) bool {
	if c := compareKeyRows(a.key, b.key, s.keys); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

func (s *sortIter) sortBatch() {
	sort.Slice(s.batch, func(i, j int) bool { return s.less(&s.batch[i], &s.batch[j]) })
}

func (s *sortIter) spillBatch() error {
	s.sortBatch()
	spillEvents.Add(1)
	pgr, err := s.sf.pager()
	if err != nil {
		return err
	}
	w := heap.NewRunWriter(pgr)
	for i := range s.batch {
		r := &s.batch[i]
		s.encBuf = s.encBuf[:0]
		s.encBuf = appendUvarint(s.encBuf, r.seq)
		s.encBuf = appendValueRow(s.encBuf, r.key)
		s.encBuf = appendARowRec(s.encBuf, r.row)
		if err := w.Append(s.encBuf); err != nil {
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.batch = s.batch[:0]
	s.batchBytes = 0
	return nil
}

func (s *sortIter) consume() error {
	for {
		kr, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.batch = append(s.batch, sortedBatchRow{keyedRow: kr, seq: s.seq})
		s.seq++
		s.batchBytes += sizeOfARow(kr.row) + sizeOfValues(kr.key)
		if s.batchBytes > s.budget {
			if err := s.spillBatch(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) == 0 {
		s.sortBatch()
		return nil
	}
	if len(s.batch) > 0 {
		if err := s.spillBatch(); err != nil {
			return err
		}
	}
	return s.openMerge()
}

// sortRunHead is the head element of one run in the k-way merge.
type sortRunHead struct {
	rd  *heap.RunReader
	cur sortedBatchRow
}

func (s *sortIter) advance(h *sortRunHead) (bool, error) {
	rec, ok, err := h.rd.Next()
	if err != nil || !ok {
		return false, err
	}
	r := &byteReader{buf: rec}
	h.cur.seq = r.uvarint()
	h.cur.key = r.row()
	h.cur.row = r.aRow(true)
	if r.err != nil {
		return false, r.err
	}
	return true, nil
}

func (s *sortIter) openMerge() error {
	pgr, err := s.sf.pager()
	if err != nil {
		return err
	}
	for _, run := range s.runs {
		h := &sortRunHead{rd: heap.NewRunReader(pgr, run)}
		ok, err := s.advance(h)
		if err != nil {
			return err
		}
		if ok {
			s.heads = append(s.heads, h)
		}
	}
	return nil
}

func (s *sortIter) Next() (ARow, bool, error) {
	if !s.started {
		s.started = true
		if err := s.consume(); err != nil {
			return ARow{}, false, err
		}
	}
	if s.heads != nil {
		if len(s.heads) == 0 {
			return ARow{}, false, nil
		}
		best := 0
		for i := 1; i < len(s.heads); i++ {
			if s.less(&s.heads[i].cur, &s.heads[best].cur) {
				best = i
			}
		}
		row := s.heads[best].cur.row
		ok, err := s.advance(s.heads[best])
		if err != nil {
			return ARow{}, false, err
		}
		if !ok {
			s.heads = append(s.heads[:best], s.heads[best+1:]...)
		}
		return row, true, nil
	}
	if s.pos >= len(s.batch) {
		return ARow{}, false, nil
	}
	row := s.batch[s.pos].row
	s.pos++
	return row, true, nil
}

// --- Top-N ----------------------------------------------------------------------------------

// topNIter keeps only the first N rows in sort order while consuming its
// input: a bounded max-heap ordered by (key, input sequence) whose root is
// the current worst survivor. The result memory is O(N) regardless of input
// size — the operator the planner picks for ORDER BY + LIMIT.
type topNIter struct {
	in    keyedIter
	keys  []orderKey
	limit int

	h       []sortedBatchRow // max-heap, worst on top
	seq     uint64
	started bool
	out     []sortedBatchRow
	pos     int
}

func newTopNIter(in keyedIter, keys []orderKey, limit int) *topNIter {
	return &topNIter{in: in, keys: keys, limit: limit}
}

// gate installs the heap's keep rule on the batch scan under a plain ordered
// SELECT, when nothing between the scan and the heap can fail on a row or
// needs it: decoration without ANNOTATION(...) or AWHERE, a projection of *
// and plain columns without PROMOTE, and order keys that all read source
// columns. While the heap is not full every row is kept; after that, a row
// only if it beats the root. That is exact: pulls are synchronous, so the
// root the gate reads is the one consume compares the row against, and a tie
// loses to the earlier row, as worse breaks ties by sequence.
func (t *topNIter) gate(in *projectKeyIter) {
	d, ok := in.in.(*decorateIter)
	if !ok || d.dec.wantAnns || d.awhere != nil {
		return
	}
	b, ok := d.in.(*batchRowsIter)
	if !ok {
		return
	}
	for i, oc := range in.proj.outCols {
		if _, ok := in.proj.sourceSlot(i); !ok || len(oc.item.promote) > 0 {
			return
		}
	}
	// The scan is the plan's only source, so value slots index its vectors.
	cols := make([]int, len(t.keys))
	for k, key := range t.keys {
		cols[k] = key.slot
		if key.outIdx >= 0 {
			cols[k], _ = in.proj.sourceSlot(key.outIdx)
		}
	}
	key := make(value.Row, len(cols))
	b.keep = func(bt *batch, i int32) bool {
		if t.limit <= 0 {
			return false
		}
		if len(t.h) < t.limit {
			return true
		}
		for k, c := range cols {
			key[k] = bt.vecs[c].valueAt(i)
		}
		return compareKeyRows(t.h[0].key, key, t.keys) > 0
	}
}

// worse reports whether a sorts after b under (key, seq) — the heap order.
func (t *topNIter) worse(a, b *sortedBatchRow) bool {
	if c := compareKeyRows(a.key, b.key, t.keys); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

func (t *topNIter) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(&t.h[i], &t.h[parent]) {
			return
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

func (t *topNIter) heapDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		biggest := i
		if l < len(t.h) && t.worse(&t.h[l], &t.h[biggest]) {
			biggest = l
		}
		if r < len(t.h) && t.worse(&t.h[r], &t.h[biggest]) {
			biggest = r
		}
		if biggest == i {
			return
		}
		t.h[i], t.h[biggest] = t.h[biggest], t.h[i]
		i = biggest
	}
}

func (t *topNIter) consume() error {
	for {
		kr, ok, err := t.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		row := sortedBatchRow{keyedRow: kr, seq: t.seq}
		t.seq++
		if t.limit <= 0 {
			continue // degenerate LIMIT 0: drain for error equivalence, keep nothing
		}
		if len(t.h) < t.limit {
			t.h = append(t.h, row)
			t.heapUp(len(t.h) - 1)
			continue
		}
		if t.worse(&t.h[0], &row) { // row beats the current worst survivor
			t.h[0] = row
			t.heapDown(0)
		}
	}
	// Emit in ascending order: pop the worst repeatedly into the tail.
	t.out = make([]sortedBatchRow, len(t.h))
	for i := len(t.h) - 1; i >= 0; i-- {
		t.out[i] = t.h[0]
		last := len(t.h) - 1
		t.h[0] = t.h[last]
		t.h = t.h[:last]
		if last > 0 {
			t.heapDown(0)
		}
	}
	return nil
}

func (t *topNIter) Next() (ARow, bool, error) {
	if !t.started {
		t.started = true
		if err := t.consume(); err != nil {
			return ARow{}, false, err
		}
	}
	if t.pos >= len(t.out) {
		return ARow{}, false, nil
	}
	row := t.out[t.pos].row
	t.pos++
	return row, true, nil
}
