package exec

// Streaming DISTINCT and set operations over projected rows.
//
// DISTINCT (and UNION, which is DISTINCT over the concatenation of its
// operands) runs through the spillable hash table of spill.go: duplicate
// elimination unions the annotations of the combined tuples (Section 3.4),
// which forces the operator to see its whole input before emitting — a later
// duplicate may still contribute annotations to an earlier row — but the
// resident state is one bucket per DISTINCT row, spilled under the memory
// budget, never one per input row.
//
// INTERSECT and EXCEPT materialize the RIGHT side as a key table (one merged
// entry per distinct right row) and stream the left side through it, so
// their cost is bounded by the right operand and the number of distinct left
// rows emitted. Column-count mismatches are detected exactly like the
// reference applySetOp: only when both operands actually produce rows.

import (
	"fmt"

	"bdbms/internal/annotation"
)

// distinctBucket is one surviving DISTINCT row.
type distinctBucket struct {
	row ARow
}

// distinctOps writes no observation records: a duplicate adds only its
// annotations, so one without annotations is not spilled at all, and one
// with them spills a bucket record.
var distinctOps = grouperOps[distinctBucket]{
	size: func(b *distinctBucket) int { return sizeOfARow(b.row) },
	encode: func(dst []byte, b *distinctBucket) []byte {
		return appendARowRec(dst, b.row)
	},
	decode: func(r *byteReader, b *distinctBucket, keep bool) error {
		b.row = r.aRow(keep)
		return r.err
	},
	merge: func(dst, src *distinctBucket) error {
		mergeDupAnns(&dst.row, &src.row)
		return nil
	},
}

// hasAnns reports whether any cell carries an annotation.
func hasAnns(anns [][]*annotation.Annotation) bool {
	for _, cell := range anns {
		if len(cell) > 0 {
			return true
		}
	}
	return false
}

// mergeDupAnns unions a duplicate's annotations into the kept row,
// column-wise, exactly like dedupeRows.
func mergeDupAnns(dst, src *ARow) {
	for c := range dst.Anns {
		if c < len(src.Anns) {
			dst.Anns[c] = unionAnnotations(dst.Anns[c], src.Anns[c])
		}
	}
}

// distinctIter deduplicates projected rows in first-seen order.
type distinctIter struct {
	in      aRowIter
	grouper *spillGrouper[distinctBucket]

	started bool
	next    func() (*distinctBucket, bool, error)
	keyBuf  []byte
}

func newDistinctIter(in aRowIter, budget int, sf *spillFile) *distinctIter {
	return &distinctIter{in: in, grouper: newSpillGrouper(distinctOps, budget, sf)}
}

func (d *distinctIter) consume() error {
	for {
		row, ok, err := d.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		d.keyBuf = appendHashKey(d.keyBuf[:0], row.Values...)
		b, flushed := d.grouper.lookup(d.keyBuf)
		switch {
		case b != nil:
			mergeDupAnns(&b.row, &row)
		case !d.grouper.overflowing():
			d.grouper.insert(string(d.keyBuf), &distinctBucket{row: row})
		case flushed && !hasAnns(row.Anns):
			// A bare duplicate of a row already on disk adds nothing.
		default:
			// Frozen table: the observation streams to disk. Once the row is
			// on disk its values are redundant — only the annotations of
			// later duplicates matter.
			delta := distinctBucket{row: row}
			if flushed {
				delta.row = ARow{Anns: row.Anns}
			}
			if err := d.grouper.appendDelta(d.keyBuf, &delta, !flushed); err != nil {
				return err
			}
		}
	}
}

func (d *distinctIter) Next() (ARow, bool, error) {
	if !d.started {
		d.started = true
		if err := d.consume(); err != nil {
			return ARow{}, false, err
		}
		d.next = d.grouper.finish()
	}
	b, ok, err := d.next()
	if err != nil || !ok {
		return ARow{}, false, err
	}
	return b.row, true, nil
}

// concatIter chains the two operands of a UNION, checking the column counts
// the way the reference executor does: an error only when both sides produce
// at least one row and they disagree.
type concatIter struct {
	left, right aRowIter
	onRight     bool
	leftCols    int // -1 until the first left row
}

func newConcatIter(left, right aRowIter) *concatIter {
	return &concatIter{left: left, right: right, leftCols: -1}
}

func (c *concatIter) Next() (ARow, bool, error) {
	if !c.onRight {
		row, ok, err := c.left.Next()
		if err != nil {
			return ARow{}, false, err
		}
		if ok {
			if c.leftCols < 0 {
				c.leftCols = len(row.Values)
			}
			return row, true, nil
		}
		c.onRight = true
	}
	row, ok, err := c.right.Next()
	if err != nil || !ok {
		return ARow{}, false, err
	}
	if c.leftCols >= 0 && len(row.Values) != c.leftCols {
		return ARow{}, false, fmt.Errorf("%w: set operands have different column counts", ErrUnsupported)
	}
	return row, true, nil
}

// setOpIter implements INTERSECT and EXCEPT: the right operand is drained
// into a key table on the first Next, then left rows stream through it.
type setOpIter struct {
	intersect   bool
	left, right aRowIter

	started   bool
	rightRows map[string]*ARow // merged annotations per distinct right row (nil values for EXCEPT)
	rightCols int              // -1 while the right side is empty
	seen      map[string]bool
	keyBuf    []byte
}

func newSetOpIter(intersect bool, left, right aRowIter) *setOpIter {
	return &setOpIter{intersect: intersect, left: left, right: right, rightCols: -1}
}

func (s *setOpIter) buildRight() error {
	s.rightRows = map[string]*ARow{}
	s.seen = map[string]bool{}
	for {
		row, ok, err := s.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if s.rightCols < 0 {
			s.rightCols = len(row.Values)
		}
		s.keyBuf = appendHashKey(s.keyBuf[:0], row.Values...)
		key := string(s.keyBuf)
		if existing, ok := s.rightRows[key]; ok {
			if s.intersect && existing != nil {
				mergeDupAnns(existing, &row)
			}
			continue
		}
		if s.intersect {
			r := row
			s.rightRows[key] = &r
		} else {
			s.rightRows[key] = nil
		}
	}
}

func (s *setOpIter) Next() (ARow, bool, error) {
	if !s.started {
		s.started = true
		if err := s.buildRight(); err != nil {
			return ARow{}, false, err
		}
	}
	for {
		row, ok, err := s.left.Next()
		if err != nil || !ok {
			return ARow{}, false, err
		}
		if s.rightCols >= 0 && len(row.Values) != s.rightCols {
			return ARow{}, false, fmt.Errorf("%w: set operands have different column counts", ErrUnsupported)
		}
		s.keyBuf = appendHashKey(s.keyBuf[:0], row.Values...)
		key := string(s.keyBuf)
		if s.seen[key] {
			continue
		}
		match, inRight := s.rightRows[key]
		if s.intersect {
			if !inRight {
				continue
			}
			s.seen[key] = true
			mergeDupAnns(&row, match)
			return row, true, nil
		}
		if inRight {
			continue
		}
		s.seen[key] = true
		return row, true, nil
	}
}
