package exec

// Cost-based join planning: cardinality estimation from table statistics
// (internal/stats), exhaustive join-order search for small FROM lists with a
// greedy fallback for large ones, and the nested-loop-when-cheaper rule for
// keyed joins with tiny prefixes.
//
// The search operates on the syntactic plan's raw material — per-source
// estimates and the analyzed multi-table conjuncts — and compiles the chosen
// order into join steps whose prefix-side slots live in the EXECUTION row
// layout (sources concatenated in execution order). Pushed single-table
// predicates need no remapping: the scan evaluates them at the source's own
// syntactic offset regardless of where the source sits in the pipeline. When
// the chosen order differs from the syntactic one, restoreIter permutes the
// output back to the syntactic layout and order, so every stage above the
// joins (residual filters, decoration, projection, ordering) is oblivious to
// the reordering. The syntactic order is evaluated first and replaced only by
// a strictly cheaper candidate, so it wins every tie and the plan-shape tests
// stay deterministic.

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"bdbms/internal/sqlparse"
	"bdbms/internal/stats"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// plansReordered counts plans whose execution order differs from the
// syntactic FROM order. The join-order fuzzer asserts it moves: otherwise
// the reorder search could degenerate to always keeping the syntactic order
// and the equivalence suite would pass trivially.
var plansReordered atomic.Int64

const (
	// defaultSelectivity is assumed for predicates the estimator cannot
	// analyze (non-comparisons, placeholders, columns without statistics).
	defaultSelectivity = 1.0 / 3
	// eqSelectivityNoStats is assumed for an equality against a constant on
	// a column with no distinct count available.
	eqSelectivityNoStats = 0.1
	// maxExhaustiveSources bounds the exhaustive permutation search (5! =
	// 120 candidate orders); larger FROM lists use the greedy search.
	maxExhaustiveSources = 5
)

// tableStats returns the planner's statistics snapshot for a table, or nil
// when the session disabled statistics. Stats rebuilds lazily once the
// incremental counters drift past the threshold, so the first plan after
// heavy churn pays one heap scan and every later plan reads the cache.
func (s *Session) tableStats(tbl *storage.Table) *stats.Table {
	if s.NoStats {
		return nil
	}
	return tbl.Stats()
}

// costModel holds the per-source cardinality estimates of one SELECT while
// the join order is chosen and its steps compiled.
type costModel struct {
	s          *Session
	sources    []*sourcePlan
	slotSource []int
	tstats     []*stats.Table // nil entries: no statistics available
	base       []float64      // raw row count per source
	est        []float64      // post-predicate estimate per source
}

func (s *Session) newCostModel(sources []*sourcePlan, slotSource []int) *costModel {
	m := &costModel{
		s:          s,
		sources:    sources,
		slotSource: slotSource,
		tstats:     make([]*stats.Table, len(sources)),
		base:       make([]float64, len(sources)),
		est:        make([]float64, len(sources)),
	}
	for i, src := range sources {
		st := s.tableStats(src.tbl)
		m.tstats[i] = st
		if st != nil {
			m.base[i] = float64(st.Rows)
		} else {
			m.base[i] = float64(src.tbl.RowCount())
		}
		m.est[i] = m.sourceEstimate(src, st, m.base[i])
	}
	return m
}

// sourceEstimate multiplies the base row count by the selectivity of every
// pushed predicate, floored at one row.
func (m *costModel) sourceEstimate(src *sourcePlan, st *stats.Table, base float64) float64 {
	rows := base
	for _, p := range src.preds {
		rows *= m.predSelectivity(src, st, p.expr)
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// predSelectivity estimates the fraction of rows one pushed conjunct keeps:
// 1/distinct for constant equalities, the covered fraction of [Min, Max] for
// numeric range comparisons, defaultSelectivity for everything else.
func (m *costModel) predSelectivity(src *sourcePlan, st *stats.Table, e sqlparse.Expr) float64 {
	col, ce, op, ok := comparisonParts(e)
	if !ok {
		return defaultSelectivity
	}
	ci := src.tbl.Schema().ColumnIndex(col.Column)
	if ci < 0 {
		return defaultSelectivity
	}
	if op == "=" {
		if d := columnDistinct(st, ci); d > 0 {
			return 1 / d
		}
		return eqSelectivityNoStats
	}
	if st == nil || ci >= len(st.Cols) || !st.Cols[ci].HasRange {
		return defaultSelectivity
	}
	// A bound that takes its value from a `?` has none yet and fails here.
	cv, err := m.s.evalConst(ce, nil)
	if err != nil {
		return defaultSelectivity
	}
	if classOf(cv.Type()) != classNumeric {
		return defaultSelectivity
	}
	f, c := cv.Float(), st.Cols[ci]
	width := c.Max - c.Min
	if width <= 0 {
		// Single-valued (or never rebuilt) range: a comparison against it
		// keeps either everything or nothing; split the difference.
		return 0.5
	}
	var frac float64
	switch op {
	case "<", "<=":
		frac = (f - c.Min) / width
	case ">", ">=":
		frac = (c.Max - f) / width
	default:
		return defaultSelectivity
	}
	return math.Min(math.Max(frac, 0), 1)
}

func columnDistinct(st *stats.Table, ci int) float64 {
	if st == nil || ci < 0 || ci >= len(st.Cols) {
		return 0
	}
	return float64(st.Cols[ci].Distinct)
}

// slotDistinct estimates the distinct count of the column behind a syntactic
// value slot, falling back to a tenth of the source's estimated rows.
func (m *costModel) slotDistinct(slot int) float64 {
	si := m.slotSource[slot]
	if d := columnDistinct(m.tstats[si], slot-m.sources[si].offset); d > 0 {
		return d
	}
	d := m.est[si] / 10
	if d < 1 {
		d = 1
	}
	return d
}

// readCost is the cost of producing a source's rows once: a full scan reads
// the whole table, an index probe reads only the estimated survivors.
func (m *costModel) readCost(si int) float64 {
	if m.sources[si].access.fullScan() {
		return m.base[si]
	}
	return m.est[si]
}

// equiParts recognizes `a.col = b.col` conjuncts where one side resolves to
// the step's right source and the other to an already-joined source, and
// returns the two syntactic slots (prefix side first). The two columns'
// declared types must share a comparison class: hash lookup silently returns
// "no match" where the naive `=` would raise a type error, so incomparable
// pairs stay as post-join filters to preserve error behavior.
func equiParts(ac analyzedConjunct, sources []*sourcePlan, slotSource []int, rightIdx int) (prefixSlot, rightSlot int, ok bool) {
	bin, isBin := ac.expr.(*sqlparse.BinaryExpr)
	if !isBin || bin.Op != "=" {
		return 0, 0, false
	}
	lcol, lok := bin.Left.(*sqlparse.ColumnExpr)
	rcol, rok := bin.Right.(*sqlparse.ColumnExpr)
	if !lok || !rok {
		return 0, 0, false
	}
	lslot, _ := ac.slots.get(lcol)
	rslot, _ := ac.slots.get(rcol)
	if slotSource[lslot] == slotSource[rslot] {
		return 0, 0, false
	}
	if slotSource[lslot] == rightIdx {
		lslot, rslot = rslot, lslot
	}
	if slotSource[rslot] != rightIdx {
		return 0, 0, false
	}
	lClass := classOf(columnTypeAt(sources, slotSource, lslot))
	rClass := classOf(columnTypeAt(sources, slotSource, rslot))
	if lClass != rClass || lClass == classOther {
		return 0, 0, false
	}
	return lslot, rslot, true
}

// stepConjuncts are the multi-table conjuncts completed at one join step,
// split into hash-key candidates and post-join filters.
type stepConjuncts struct {
	equi []analyzedConjunct
	post []analyzedConjunct
}

// assignConjuncts places every multi-table conjunct at the earliest step of
// the candidate order where all its sources are joined. By construction the
// step's new (right) source is one of the conjunct's sources, so two-source
// equalities are always eligible as hash keys of that step.
func (m *costModel) assignConjuncts(order []int, multi []analyzedConjunct) []stepConjuncts {
	pos := make([]int, len(m.sources))
	for p, si := range order {
		pos[si] = p
	}
	steps := make([]stepConjuncts, len(order)-1)
	for _, ac := range multi {
		maxPos := 0
		for _, c := range ac.slots {
			if p := pos[m.slotSource[c.slot]]; p > maxPos {
				maxPos = p
			}
		}
		if _, _, ok := equiParts(ac, m.sources, m.slotSource, order[maxPos]); ok {
			steps[maxPos-1].equi = append(steps[maxPos-1].equi, ac)
		} else {
			steps[maxPos-1].post = append(steps[maxPos-1].post, ac)
		}
	}
	return steps
}

// stepSelectivity estimates the fraction of prefix×right combinations one
// join step keeps: 1/max(distinct) per equi-key, defaultSelectivity per
// post filter, 1 for a pure cross join.
func (m *costModel) stepSelectivity(sc stepConjuncts, rightIdx int) float64 {
	sel := 1.0
	for _, ac := range sc.equi {
		lslot, rslot, _ := equiParts(ac, m.sources, m.slotSource, rightIdx)
		sel /= math.Max(m.slotDistinct(lslot), m.slotDistinct(rslot))
	}
	for range sc.post {
		sel *= defaultSelectivity
	}
	return sel
}

// orderCost estimates the total cost of executing the sources in the given
// order. Per step: the right side is read and materialized once; a hash join
// then costs build(right) + probe(prefix), a nested loop prefix × right;
// emitting the surviving combinations is charged either way. Keyed steps are
// costed at whichever of the two is cheaper, matching the choice buildSteps
// compiles.
func (m *costModel) orderCost(order []int, multi []analyzedConjunct) float64 {
	steps := m.assignConjuncts(order, multi)
	rows := m.est[order[0]]
	cost := m.readCost(order[0])
	for i := range steps {
		r := order[i+1]
		out := rows * m.est[r] * m.stepSelectivity(steps[i], r)
		if out < 1 {
			out = 1
		}
		hash := 2*m.est[r] + rows
		nl := rows * m.est[r]
		join := hash
		if len(steps[i].equi) == 0 || nl < hash {
			join = nl
		}
		cost += m.readCost(r) + join + out
		rows = out
	}
	return cost
}

// chooseOrder picks the cheapest execution order: exhaustively for small
// FROM lists, greedily beyond maxExhaustiveSources. The syntactic order is
// the baseline and survives unless a candidate is strictly cheaper.
func (m *costModel) chooseOrder(multi []analyzedConjunct) []int {
	best := identityOrder(len(m.sources))
	bestCost := m.orderCost(best, multi)
	consider := func(cand []int) {
		if c := m.orderCost(cand, multi); c < bestCost {
			bestCost = c
			copy(best, cand)
		}
	}
	if len(m.sources) <= maxExhaustiveSources {
		permute(identityOrder(len(m.sources)), 0, consider)
	} else {
		consider(m.greedyOrder(multi))
	}
	return best
}

// permute enumerates every permutation of p[k:] in a deterministic order,
// calling fn with the full slice for each.
func permute(p []int, k int, fn func([]int)) {
	if k == len(p) {
		fn(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, fn)
		p[k], p[i] = p[i], p[k]
	}
}

// greedyOrder starts from the smallest estimated source and repeatedly
// appends the candidate that minimizes the cost of the order completed with
// the remaining sources in syntactic position.
func (m *costModel) greedyOrder(multi []analyzedConjunct) []int {
	n := len(m.sources)
	used := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if m.est[i] < m.est[start] {
			start = i
		}
	}
	order := []int{start}
	used[start] = true
	for len(order) < n {
		bestNext, bestCost := -1, math.Inf(1)
		for r := 0; r < n; r++ {
			if used[r] {
				continue
			}
			cand := append(append([]int(nil), order...), r)
			for i := 0; i < n; i++ {
				if !used[i] && i != r {
					cand = append(cand, i)
				}
			}
			if c := m.orderCost(cand, multi); c < bestCost {
				bestCost, bestNext = c, r
			}
		}
		order = append(order, bestNext)
		used[bestNext] = true
	}
	return order
}

// buildSteps compiles the join steps of the chosen order. Prefix-side slots
// (hash keys and post-filter column references) are remapped from the
// syntactic value-slot layout into the execution layout — the concatenation
// of the sources' column blocks in execution order — because that is the
// layout of the rows flowing through the join pipeline. Right-side key slots
// stay local to the right source. With costBased set, a keyed step whose
// prefix is estimated smaller than the hash build cost is compiled as a
// nested loop instead: the equality conjuncts run as post-join filters,
// which is semantically identical (key extraction requires a shared
// comparison class, so `=` never errors, and a NULL key matches under
// neither strategy).
//
// It returns the steps, the estimated rows after each step, and the
// estimated rows out of the whole join pipeline.
func (m *costModel) buildSteps(order []int, multi []analyzedConjunct, costBased bool) ([]joinStep, []float64, float64) {
	execOff := make([]int, len(order))
	pos := make([]int, len(m.sources))
	off := 0
	for p, si := range order {
		execOff[p] = off
		pos[si] = p
		off += m.sources[si].numCols
	}
	toExec := func(slot int) int {
		si := m.slotSource[slot]
		return execOff[pos[si]] + (slot - m.sources[si].offset)
	}
	remap := func(ac analyzedConjunct) compiledPred {
		slots := make(colSlots, len(ac.slots))
		for i, c := range ac.slots {
			slots[i] = colSlot{col: c.col, slot: toExec(c.slot)}
		}
		return compiledPred{expr: ac.expr, slots: slots}
	}
	assigned := m.assignConjuncts(order, multi)
	steps := make([]joinStep, len(order)-1)
	stepRows := make([]float64, len(steps))
	rows := m.est[order[0]]
	for i := range steps {
		r := order[i+1]
		right := m.sources[r]
		step := joinStep{right: right}
		for _, ac := range assigned[i].equi {
			lslot, rslot, _ := equiParts(ac, m.sources, m.slotSource, r)
			step.leftKey = append(step.leftKey, joinKeyCol{
				slot:  toExec(lslot),
				class: classOf(columnTypeAt(m.sources, m.slotSource, lslot)),
			})
			step.rightKey = append(step.rightKey, joinKeyCol{
				slot:  rslot - right.offset,
				class: classOf(columnTypeAt(m.sources, m.slotSource, rslot)),
			})
		}
		for _, ac := range assigned[i].post {
			step.post = append(step.post, remap(ac))
		}
		if costBased && len(step.leftKey) > 0 && rows*m.est[r] < 2*m.est[r]+rows {
			step.leftKey, step.rightKey = nil, nil
			for _, ac := range assigned[i].equi {
				step.post = append(step.post, remap(ac))
			}
		}
		out := rows * m.est[r] * m.stepSelectivity(assigned[i], r)
		if out < 1 {
			out = 1
		}
		steps[i] = step
		stepRows[i] = out
		rows = out
	}
	return steps, stepRows, rows
}

// topNWins decides the physical sort operator for an ordered, limited
// SELECT: a bounded heap of limit rows when the limit undercuts the
// estimated input size, a full sort otherwise (a LIMIT that keeps nearly
// everything gains nothing from heap maintenance). A zero estimate means the
// plan has no cardinality information (e.g. no FROM sources); the historical
// choice — Top-N whenever a LIMIT is present — is kept there.
func topNWins(limit int, phys *physicalPlan) bool {
	if limit < 0 {
		return false
	}
	return phys.estRows <= 0 || float64(limit) < phys.estRows
}

// restoreIter sits above a reordered join pipeline and makes the reordering
// invisible to everything downstream: each row's values and origins are
// permuted from the execution layout back to the syntactic layout, and the
// rows are re-emitted in the order the syntactic pipeline would produce —
// ascending by the tuple of origin RowIDs in syntactic FROM order, which is
// exactly the left-major order the scans and joins stream in (both emit
// matches in ascending RowID order). Origin tuples are unique per output
// row (a join emits each base-row combination at most once), so the sort is
// deterministic.
//
// The operator streams by runs. When the execution order keeps the first k
// syntactic sources in place (order[i] == i for i < k), rows arrive sorted
// by their first k RowIDs, so only a run of rows sharing them needs sorting,
// and it is emitted before the next run is read; with k = 0 the whole join
// output is one run. Restore holds at most one run (plus the first row of
// the next), and a LIMIT that stops pulling stops the join mid-output.
//
// Rows are permuted in place: the operator below is always a join step (or
// its post-join filter, which passes rows through), and combineRows builds
// every joined row's values and origins fresh, so the row owns them. The
// permutation goes through one reused scratch buffer and allocates nothing
// per row.
type restoreIter struct {
	in   rowIter
	plan *physicalPlan
	k    int       // leading syntactic sources the execution order keeps in place
	run  []execRow // the current run, permuted and sorted
	pos  int
	// next is the first row of the following run, already permuted.
	next    execRow
	hasNext bool
	done    bool
	valBuf  value.Row
	orgBuf  []origin
}

func newRestoreIter(in rowIter, plan *physicalPlan) *restoreIter {
	k := 0
	for k < len(plan.order) && plan.order[k] == k {
		k++
	}
	return &restoreIter{in: in, plan: plan, k: k}
}

func (it *restoreIter) Next() (execRow, bool, error) {
	if it.pos >= len(it.run) {
		if err := it.fill(); err != nil || len(it.run) == 0 {
			return execRow{}, false, err
		}
	}
	r := it.run[it.pos]
	it.pos++
	return r, true, nil
}

// fill reads the next run and sorts it; the run is empty once the input is.
func (it *restoreIter) fill() error {
	clear(it.run) // emitted rows belong to the consumer now
	it.run, it.pos = it.run[:0], 0
	if it.hasNext {
		it.run = append(it.run, it.next)
		it.next, it.hasNext = execRow{}, false
	}
	for !it.done {
		r, ok, err := it.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			it.done = true
			break
		}
		it.permute(&r)
		if len(it.run) > 0 && !it.sameRun(&it.run[0], &r) {
			it.next, it.hasNext = r, true
			break
		}
		it.run = append(it.run, r)
	}
	if len(it.run) > 1 {
		slices.SortFunc(it.run, it.compare)
	}
	return nil
}

// permute moves the row's values and origins from the execution layout to
// the syntactic one. The first k sources already sit at their syntactic
// offsets, so only the tail moves.
func (it *restoreIter) permute(r *execRow) {
	srcs, order := it.plan.sources, it.plan.order
	rv := r.vals()
	it.valBuf = append(it.valBuf[:0], rv[srcs[it.k].offset:]...)
	it.orgBuf = append(it.orgBuf[:0], r.origins[it.k:]...)
	off := 0
	for p := it.k; p < len(order); p++ {
		src := srcs[order[p]]
		copy(rv[src.offset:src.offset+src.numCols], it.valBuf[off:off+src.numCols])
		r.origins[order[p]] = it.orgBuf[p-it.k]
		off += src.numCols
	}
}

// sameRun reports whether two permuted rows share their first k RowIDs.
func (it *restoreIter) sameRun(a, b *execRow) bool {
	for i := 0; i < it.k; i++ {
		if a.origins[i].rowID != b.origins[i].rowID {
			return false
		}
	}
	return true
}

// compare orders two rows of one run by their remaining syntactic RowIDs.
func (it *restoreIter) compare(a, b execRow) int {
	for i := it.k; i < len(a.origins); i++ {
		if c := cmp.Compare(a.origins[i].rowID, b.origins[i].rowID); c != 0 {
			return c
		}
	}
	return 0
}
