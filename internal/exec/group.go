package exec

// Streaming grouped aggregation. groupAggIter replaces the naive executor's
// materialize-then-group step in the cursor pipeline: it consumes its input
// through a spillable hash table (spill.go) whose buckets hold a
// representative row, the column-wise union of the group's annotations (the
// paper's Section 3.4 semantics for grouping operators) and constant-size
// aggregate accumulators instead of the member rows themselves — so a group
// of a million rows costs the same resident memory as a group of one, and
// the table as a whole is bounded by the session's spill budget.
//
// Output groups are emitted in first-seen order, exactly like the reference
// executor's groupRows, even after spilling (every bucket carries the
// sequence number of its first member).

import (
	"fmt"

	"bdbms/internal/annotation"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// aggKind enumerates the supported accumulator shapes.
type aggKind int

const (
	aggCountStar aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggSpec is one AggregateExpr node of the statement (SELECT list or HAVING)
// resolved against the binding layout. Every syntactic occurrence gets its
// own accumulator; the emitted rows resolve AggregateExpr nodes by pointer.
type aggSpec struct {
	node *sqlparse.AggregateExpr
	kind aggKind
	slot int // value slot of the aggregated column; -1 for COUNT(*)
}

// collectAggregates resolves every aggregate node reachable from the SELECT
// items and HAVING clause. Resolution errors are deferred to the first input
// row (via the returned error alongside the specs): the reference executor
// only surfaces them when at least one group exists.
func collectAggregates(st *sqlparse.SelectStmt, bindings []binding) ([]aggSpec, error) {
	var specs []aggSpec
	var firstErr error
	add := func(e sqlparse.Expr) {
		sqlparse.WalkExpr(e, func(sub sqlparse.Expr) {
			agg, ok := sub.(*sqlparse.AggregateExpr)
			if !ok {
				return
			}
			spec := aggSpec{node: agg, slot: -1}
			switch agg.Func {
			case "COUNT":
				spec.kind = aggCount
				if agg.Star {
					spec.kind = aggCountStar
				}
			case "SUM":
				spec.kind = aggSum
			case "AVG":
				spec.kind = aggAvg
			case "MIN":
				spec.kind = aggMin
			case "MAX":
				spec.kind = aggMax
			default:
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: aggregate %s", ErrUnsupported, agg.Func)
				}
				return
			}
			if agg.Star && agg.Func != "COUNT" {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: %s(*)", ErrUnsupported, agg.Func)
				}
				return
			}
			if !agg.Star {
				idx, _, err := resolveColumn(bindings, agg.Column)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				spec.slot = idx
			}
			specs = append(specs, spec)
		})
	}
	for _, item := range st.Items {
		if !item.Star {
			add(item.Expr)
		}
	}
	if st.Having != nil {
		add(st.Having)
	}
	return specs, firstErr
}

// aggState is one accumulator. It is the single implementation of aggregate
// semantics: the naive reference executor (evalAggregate), the streaming
// grouped path and its spill codec all fold through these update/merge/final
// steps, so the three executors cannot drift apart.
//
// SUM and AVG accumulate INT inputs in an exact int64 (isum) for as long as
// every input is an integer and the running total fits; the first FLOAT input
// or int64 overflow promotes the accumulator to float64 (inexact), matching
// the all-float behaviour the executor had before. SUM of an all-INT group is
// therefore exact — and an INT — even beyond 2^53; SUM of an all-NULL group
// stays 0, AVG of an all-NULL group is NULL, MIN/MAX keep the earliest value
// on ties and propagate Compare's type-mismatch errors.
type aggState struct {
	count   int64
	sum     float64 // float accumulation, meaningful once inexact
	isum    int64   // exact integer accumulation while !inexact
	inexact bool    // a FLOAT joined, or isum overflowed
	n       int64
	best    value.Value
	hasBest bool
}

// addInt64 adds two int64s, reporting false on overflow.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// total returns the accumulated sum as a float64, whichever representation
// holds it.
func (a *aggState) total() float64 {
	if a.inexact {
		return a.sum
	}
	return float64(a.isum)
}

// addInt folds one non-NULL int64 into the SUM/AVG accumulator without
// boxing — the vectorized consume path's equivalent of addNum on an INT.
func (a *aggState) addInt(x int64) {
	if !a.inexact {
		if s, ok := addInt64(a.isum, x); ok {
			a.isum = s
			return
		}
		a.sum, a.inexact, a.isum = float64(a.isum), true, 0
	}
	a.sum += float64(x)
}

// addFloat folds one non-NULL float64 into the SUM/AVG accumulator.
func (a *aggState) addFloat(x float64) {
	if !a.inexact {
		a.sum, a.inexact, a.isum = float64(a.isum), true, 0
	}
	a.sum += x
}

// addNum folds one non-NULL value into the SUM/AVG accumulator.
func (a *aggState) addNum(v value.Value) {
	if !a.inexact && v.Type() == value.Int {
		if s, ok := addInt64(a.isum, v.Int()); ok {
			a.isum = s
			return
		}
	}
	if !a.inexact {
		a.sum, a.inexact, a.isum = float64(a.isum), true, 0
	}
	a.sum += v.Float()
}

func (a *aggState) update(kind aggKind, v value.Value) error {
	switch kind {
	case aggCountStar:
		a.count++
	case aggCount:
		if !v.IsNull() {
			a.count++
		}
	case aggSum, aggAvg:
		if !v.IsNull() {
			a.addNum(v)
			a.n++
		}
	case aggMin, aggMax:
		if v.IsNull() {
			return nil
		}
		if !a.hasBest {
			a.best, a.hasBest = v, true
			return nil
		}
		c, err := v.Compare(a.best)
		if err != nil {
			return err
		}
		if (kind == aggMin && c < 0) || (kind == aggMax && c > 0) {
			a.best = v
		}
	}
	return nil
}

// merge folds src (accumulated over later members) into a.
func (a *aggState) merge(kind aggKind, src *aggState) error {
	a.count += src.count
	if !a.inexact && !src.inexact {
		if s, ok := addInt64(a.isum, src.isum); ok {
			a.isum = s
		} else {
			a.sum, a.inexact, a.isum = float64(a.isum)+float64(src.isum), true, 0
		}
	} else {
		a.sum, a.inexact, a.isum = a.total()+src.total(), true, 0
	}
	a.n += src.n
	if src.hasBest {
		if !a.hasBest {
			a.best, a.hasBest = src.best, true
		} else {
			c, err := src.best.Compare(a.best)
			if err != nil {
				return err
			}
			if (kind == aggMin && c < 0) || (kind == aggMax && c > 0) {
				a.best = src.best
			}
		}
	}
	return nil
}

func (a *aggState) final(kind aggKind) value.Value {
	switch kind {
	case aggCountStar, aggCount:
		return value.NewInt(a.count)
	case aggSum:
		if a.inexact {
			return value.NewFloat(a.sum)
		}
		return value.NewInt(a.isum)
	case aggAvg:
		if a.n == 0 {
			return value.NewNull()
		}
		return value.NewFloat(a.total() / float64(a.n))
	default: // aggMin, aggMax
		if !a.hasBest {
			return value.NewNull()
		}
		return a.best
	}
}

// groupBucket is the resident state of one group.
type groupBucket struct {
	vals value.Row
	anns [][]*annotation.Annotation
	aggs []aggState
}

// groupAggIter consumes its decorated input on the first Next and then emits
// one execRow per group, in first-seen order, with the aggregate results
// attached (execRow.aggVals) for the projector and HAVING to resolve.
type groupAggIter struct {
	s       *Session
	in      rowIter
	keyIdx  []int
	specs   []aggSpec
	specErr error
	sf      *spillFile
	grouper *spillGrouper[groupBucket]

	// batches, when set, feeds the aggregation column vectors directly
	// (consumeBatches) instead of pulling adapted rows from in. The cursor
	// sets it only when nothing between the scan and the aggregation needs
	// boxed rows (no ANNOTATION clause, no AWHERE); annWidth is the
	// decorator's total column count, so buckets carry the same annotation
	// layout the row path would attach, and marks, when the scanned table has
	// outdated cells, is its decoration plan: consumeBatches attaches to each
	// marked row the marks the decorator would have.
	batches  *batchScanIter
	annWidth int
	marks    *annSource

	started bool
	next    func() (*groupBucket, bool, error)
	keyBuf  []byte
	delta   groupBucket // reused scratch for appendDelta records
}

// newGroupAggIter resolves the GROUP BY key slots eagerly (the reference
// executor errors on an unknown grouping column even over empty input) and
// defers aggregate-resolution errors to the first row.
func newGroupAggIter(s *Session, in rowIter, st *sqlparse.SelectStmt, bindings []binding, sf *spillFile) (*groupAggIter, error) {
	var keyIdx []int
	for i := range st.GroupBy {
		idx, _, err := resolveColumn(bindings, &st.GroupBy[i])
		if err != nil {
			return nil, err
		}
		keyIdx = append(keyIdx, idx)
	}
	specs, specErr := collectAggregates(st, bindings)
	g := &groupAggIter{s: s, in: in, keyIdx: keyIdx, specs: specs, specErr: specErr, sf: sf}
	g.grouper = newSpillGrouper(grouperOps[groupBucket]{
		size:       g.bucketSize,
		encode:     g.encodeBucket,
		decode:     g.decodeBucket,
		decodeInto: g.decodeBucketInto,
		merge:      g.mergeBuckets,
	}, s.spillBudget(), sf)
	return g, nil
}

func (g *groupAggIter) bucketSize(b *groupBucket) int {
	return sizeOfValues(b.vals) + sizeOfAnnCells(b.anns) + len(b.aggs)*56
}

func (g *groupAggIter) encodeBucket(dst []byte, b *groupBucket) []byte {
	// A nil representative row marks a re-observation bucket: an earlier
	// flush generation already spilled this group's row (and the merge keeps
	// only the earliest generation's payload), so the record carries just the
	// accumulators.
	if b.vals == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendValueRow(dst, b.vals)
	}
	dst = appendAnnCells(dst, b.anns)
	for i := range b.aggs {
		a := &b.aggs[i]
		dst = appendVarint(dst, a.count)
		dst = appendFloat(dst, a.sum)
		dst = appendVarint(dst, a.isum)
		if a.inexact {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendVarint(dst, a.n)
		if a.hasBest {
			dst = append(dst, 1)
			dst = appendOneValue(dst, a.best)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func (g *groupAggIter) decodeBucket(r *byteReader) (*groupBucket, error) {
	b := &groupBucket{}
	if err := g.decodeBucketInto(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeBucketInto decodes a spill record into a reusable bucket (the
// accumulator slice is retained across calls; everything else is replaced).
func (g *groupAggIter) decodeBucketInto(r *byteReader, b *groupBucket) error {
	b.vals = nil
	if r.byteVal() != 0 {
		b.vals = r.row()
	}
	b.anns = r.annCells()
	if cap(b.aggs) < len(g.specs) {
		b.aggs = make([]aggState, len(g.specs))
	} else {
		b.aggs = b.aggs[:len(g.specs)]
	}
	for i := range b.aggs {
		a := &b.aggs[i]
		a.count = r.varint()
		a.sum = r.float()
		a.isum = r.varint()
		a.inexact = r.byteVal() != 0
		a.n = r.varint()
		a.best, a.hasBest = value.Value{}, false
		if r.byteVal() != 0 {
			a.best = r.oneValue()
			a.hasBest = true
		}
	}
	return r.err
}

// resetDelta clears and returns the reusable single-observation bucket the
// consume loops encode through appendDelta when the resident table is frozen.
func (g *groupAggIter) resetDelta() *groupBucket {
	d := &g.delta
	d.vals, d.anns = nil, nil
	if cap(d.aggs) < len(g.specs) {
		d.aggs = make([]aggState, len(g.specs))
	} else {
		d.aggs = d.aggs[:len(g.specs)]
		for i := range d.aggs {
			d.aggs[i] = aggState{}
		}
	}
	return d
}

func (g *groupAggIter) mergeBuckets(dst, src *groupBucket) error {
	for c := range dst.anns {
		if c < len(src.anns) {
			dst.anns[c] = unionAnnotations(dst.anns[c], src.anns[c])
		}
	}
	for i := range dst.aggs {
		if err := dst.aggs[i].merge(g.specs[i].kind, &src.aggs[i]); err != nil {
			return err
		}
	}
	return nil
}

// groupKeyBytes renders the group key into the reused key buffer exactly like
// the reference executor (strings.Join of Value.String() with NUL
// separators), so the two paths always form identical groups.
func (g *groupAggIter) groupKeyBytes(vals value.Row) []byte {
	g.keyBuf = g.keyBuf[:0]
	for i, idx := range g.keyIdx {
		if i > 0 {
			g.keyBuf = append(g.keyBuf, 0)
		}
		g.keyBuf = append(g.keyBuf, vals[idx].String()...)
	}
	return g.keyBuf
}

// foldAnns unions one member's annotations into its resident group's,
// charging the growth to the spill budget.
func (g *groupAggIter) foldAnns(b *groupBucket, anns [][]*annotation.Annotation) {
	grown := 0
	for c := range b.anns {
		if c < len(anns) && len(anns[c]) > 0 {
			before := len(b.anns[c])
			b.anns[c] = unionAnnotations(b.anns[c], anns[c])
			grown += (len(b.anns[c]) - before) * 8
		}
	}
	g.grouper.grow(grown)
}

func (g *groupAggIter) consume() error {
	first := true
	for {
		r, ok, err := g.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if first {
			first = false
			if g.specErr != nil {
				// The reference executor surfaces aggregate resolution errors
				// only when at least one group exists.
				return g.specErr
			}
		}
		key := g.groupKeyBytes(r.values)
		b := g.grouper.lookup(key)
		delta := false
		switch {
		case b != nil:
			g.foldAnns(b, r.anns)
		case !g.grouper.overflowing():
			b = &groupBucket{
				vals: r.values,
				anns: r.anns,
				aggs: make([]aggState, len(g.specs)),
			}
			g.grouper.insert(string(key), b)
		default:
			// Frozen table: this observation spills as a delta record. The
			// member's annotations always ride along; the representative row
			// only until the key's first delta is on disk (the merge keeps
			// the earliest payload and drops the rest).
			delta = true
			b = g.resetDelta()
			b.anns = r.anns
			if !g.grouper.flushedBefore(key) {
				b.vals = r.values
			}
		}
		for i := range g.specs {
			spec := &g.specs[i]
			v := value.Value{}
			if spec.slot >= 0 {
				v = r.values[spec.slot]
			}
			if err := b.aggs[i].update(spec.kind, v); err != nil {
				return err
			}
		}
		if delta {
			if err := g.grouper.appendDelta(key, b); err != nil {
				return err
			}
		}
	}
}

// consumeBatches is the vectorized twin of consume: it folds column vectors
// into the same spillable hash table, building group keys without boxing and
// updating INT/FLOAT SUM/AVG accumulators straight from the typed vectors.
// Group formation, first-seen order, NULL handling, outdated marks, error
// surfacing and spill behaviour are identical to the row path — the fuzzer
// runs both and diffs.
func (g *groupAggIter) consumeBatches() error {
	bs := g.batches
	off := bs.src.offset
	marks := g.marks
	if marks != nil {
		batchMarkedAggs.Add(1)
	}
	first := true
	for {
		b, ok, err := bs.nextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if first {
			first = false
			if g.specErr != nil {
				return g.specErr
			}
		}
		for _, i := range b.sel {
			g.keyBuf = g.keyBuf[:0]
			for ki, idx := range g.keyIdx {
				if ki > 0 {
					g.keyBuf = append(g.keyBuf, 0)
				}
				g.keyBuf = b.vecs[idx-off].appendKeyString(g.keyBuf, i)
			}
			// The row's annotations: nil, standing for annWidth empty cells,
			// unless the row carries outdated marks.
			var anns [][]*annotation.Annotation
			if marks != nil && marks.bm.RowOutdated(b.rowIDs[i]) {
				anns = make([][]*annotation.Annotation, g.annWidth)
				marks.appendOutdated(anns, b.rowIDs[i])
			}
			bkt := g.grouper.lookup(g.keyBuf)
			delta := false
			switch {
			case bkt != nil:
				if anns != nil {
					g.foldAnns(bkt, anns)
				}
			case !g.grouper.overflowing():
				if anns == nil {
					anns = make([][]*annotation.Annotation, g.annWidth)
				}
				bkt = &groupBucket{
					vals: b.rowValues(i),
					anns: anns,
					aggs: make([]aggState, len(g.specs)),
				}
				g.grouper.insert(string(g.keyBuf), bkt)
			default:
				// Frozen table: spill this observation as a delta record, as
				// consume does. Empty annotation cells fold to nothing, so only
				// the record carrying the representative row spells them out.
				delta = true
				bkt = g.resetDelta()
				bkt.anns = anns
				if !g.grouper.flushedBefore(g.keyBuf) {
					bkt.vals = b.rowValues(i)
					if anns == nil {
						bkt.anns = make([][]*annotation.Annotation, g.annWidth)
					}
				}
			}
			for si := range g.specs {
				spec := &g.specs[si]
				a := &bkt.aggs[si]
				if spec.slot < 0 {
					// COUNT(*) is the only slotless aggregate.
					a.count++
					continue
				}
				v := &b.vecs[spec.slot-off]
				if v.null(i) {
					// Every slotted aggregate ignores NULL.
					continue
				}
				switch {
				case spec.kind == aggCount:
					a.count++
				case (spec.kind == aggSum || spec.kind == aggAvg) && v.kind == storage.ColInt:
					a.addInt(v.ints[i])
					a.n++
				case (spec.kind == aggSum || spec.kind == aggAvg) && v.kind == storage.ColFloat:
					a.addFloat(v.flts[i])
					a.n++
				default:
					if err := a.update(spec.kind, v.valueAt(i)); err != nil {
						return err
					}
				}
			}
			if delta {
				if err := g.grouper.appendDelta(g.keyBuf, bkt); err != nil {
					return err
				}
			}
		}
	}
}

func (g *groupAggIter) Next() (execRow, bool, error) {
	if !g.started {
		g.started = true
		consume := g.consume
		if g.batches != nil {
			consume = g.consumeBatches
		}
		if err := consume(); err != nil {
			return execRow{}, false, err
		}
		next, err := g.grouper.finish()
		if err != nil {
			return execRow{}, false, err
		}
		g.next = next
	}
	b, ok, err := g.next()
	if err != nil || !ok {
		return execRow{}, false, err
	}
	aggVals := make(map[*sqlparse.AggregateExpr]value.Value, len(g.specs))
	for i := range g.specs {
		aggVals[g.specs[i].node] = b.aggs[i].final(g.specs[i].kind)
	}
	return execRow{values: b.vals, anns: b.anns, aggVals: aggVals}, true, nil
}

// havingIter filters grouped rows by the HAVING condition, resolving
// aggregates from the rows' accumulator results.
type havingIter struct {
	s        *Session
	in       rowIter
	expr     sqlparse.Expr
	bindings []binding
	params   value.Row
}

func (it *havingIter) Next() (execRow, bool, error) {
	for {
		r, ok, err := it.in.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		keep, err := it.s.evalBool(it.expr, it.bindings, r, r.group, it.params)
		if err != nil {
			return execRow{}, false, err
		}
		if keep {
			return r, true, nil
		}
	}
}

// annMatchIter keeps rows with at least one annotation satisfying the
// condition (AWHERE after grouping = AHAVING).
type annMatchIter struct {
	in     rowIter
	expr   sqlparse.Expr
	params value.Row
}

func (it *annMatchIter) Next() (execRow, bool, error) {
	for {
		r, ok, err := it.in.Next()
		if err != nil || !ok {
			return execRow{}, false, err
		}
		match, err := annRowMatches(it.expr, &r, it.params)
		if err != nil {
			return execRow{}, false, err
		}
		if match {
			return r, true, nil
		}
	}
}

// annFilterIter drops annotations (never rows) failing the FILTER condition.
type annFilterIter struct {
	in     rowIter
	expr   sqlparse.Expr
	params value.Row
}

func (it *annFilterIter) Next() (execRow, bool, error) {
	r, ok, err := it.in.Next()
	if err != nil || !ok {
		return execRow{}, false, err
	}
	if err := filterRowAnns(it.expr, &r, it.params); err != nil {
		return execRow{}, false, err
	}
	return r, true, nil
}
