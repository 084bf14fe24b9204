package storage

// Columnar scan cache: a column-major mirror of one table's heap, built
// lazily for the vectorized executor (internal/exec/batch.go) and usable only
// for scan shapes that read the table exactly as the current heap stores it.
//
// The cache is a pure acceleration structure — the heap stays the source of
// truth. Consistency is a two-part handshake:
//
//   - every heap mutation bumps Table.writeSeq and drops the cached pointer
//     (Table.write); a ColData carries the writeSeq observed under the
//     table's read lock while it was built, so ColData.WriteSeq ==
//     Table.WriteSeq() proves the cache still mirrors the current heap;
//   - the executor additionally asks the MVCC layer whether its snapshot
//     sees the current heap for the table (Snapshot.SeesCurrentHeap): a
//     non-empty overlay means some row must be read as a before-image, and
//     the scan falls back to the row-at-a-time path.
//
// Rows are sliced into chunks of ColChunkRows in ascending RowID order — the
// same order (and, by the handshake above, the same row set) the row scan
// produces. Within a chunk each column becomes a typed vector: INT and FLOAT
// columns as raw int64/float64 slices, TEXT/SEQUENCE columns either raw or
// dictionary-coded when the chunk holds few distinct strings, everything else
// as boxed values. The dictionary code vector and the NULL-validity vector
// are byte strings, and internal/rle compresses them per chunk whenever the
// run-length form is smaller — which is exactly the annotation-heavy /
// low-cardinality / mostly-non-NULL shapes the paper's workloads produce.

import (
	"bdbms/internal/catalog"
	"bdbms/internal/rle"
	"bdbms/internal/value"
)

// ColChunkRows is the number of rows per columnar chunk; the executor's batch
// size. Cache-resident vectors of this length keep a scan's working set in
// L1/L2 while amortizing per-batch overhead over ~1k rows.
const ColChunkRows = 1024

// colCacheMaxRows bounds the table size the cache will mirror: the columnar
// copy roughly doubles the table's resident footprint, which is the wrong
// trade for huge tables until chunks can page in and out.
const colCacheMaxRows = 4 << 20

// ColKind is the physical vector representation of one column.
type ColKind uint8

const (
	// ColInt stores int64 payloads in Ints.
	ColInt ColKind = iota
	// ColFloat stores float64 payloads in Floats.
	ColFloat
	// ColText stores strings: raw in Strs, or dictionary-coded in
	// Dict+Codes/CodesRLE when the chunk has at most 255 distinct values.
	ColText
	// ColOther stores boxed values verbatim (BOOL, TIMESTAMP).
	ColOther
)

// ColVec is one column of one chunk.
type ColVec struct {
	Kind ColKind
	// Type is the declared column type, so the executor can rebox payloads
	// as the exact value the row path would produce (TEXT vs SEQUENCE).
	Type value.Type

	Ints   []int64
	Floats []float64

	Strs []string // raw text payloads (nil when dictionary-coded)
	Dict []string // dictionary values, indexed by code
	// Codes holds one dictionary code per row; exactly one of Codes and
	// CodesRLE is set when Dict is. CodesRLE is chosen when the run-length
	// form is smaller (clustered or low-cardinality chunks).
	Codes    []byte
	CodesRLE *rle.Sequence

	Vals []value.Value // ColOther payloads

	// NULL validity: all three nil means every row is valid. Otherwise one
	// of Valid (raw, 1 = valid) or ValidRLE (run-length, for the common
	// mostly-valid chunks) is set.
	Valid    []byte
	ValidRLE *rle.Sequence
}

// DecodeCodes returns the chunk's dictionary codes as a flat byte vector,
// expanding the run-length form into dst when needed.
func (v *ColVec) DecodeCodes(dst []byte) []byte {
	if v.CodesRLE != nil {
		return v.CodesRLE.AppendDecoded(dst[:0])
	}
	return v.Codes
}

// DecodeValid returns the chunk's validity vector (1 = valid), or nil when
// every row is valid, expanding the run-length form into dst when needed.
func (v *ColVec) DecodeValid(dst []byte) []byte {
	if v.ValidRLE != nil {
		return v.ValidRLE.AppendDecoded(dst[:0])
	}
	return v.Valid
}

// ColChunk is up to ColChunkRows consecutive rows in column-major form.
type ColChunk struct {
	RowIDs []int64
	Cols   []ColVec
}

// Rows returns the number of rows in the chunk.
func (c *ColChunk) Rows() int { return len(c.RowIDs) }

// ColData is one table's columnar mirror: every live row, chunked, plus the
// writeSeq that proves (or disproves) its currency.
type ColData struct {
	WriteSeq uint64
	NumCols  int
	Chunks   []*ColChunk
}

// ColumnarData returns the table's columnar mirror, building (and caching) it
// from the current heap when missing or stale. It returns nil when the table
// is too large to mirror or a heap read fails; callers fall back to the row
// scan. The caller must still verify currency against its own snapshot — see
// the package comment.
func (t *Table) ColumnarData() *ColData {
	if cd := t.colCache.Load(); cd != nil && cd.WriteSeq == t.writeSeq.Load() {
		return cd
	}
	if t.RowCount() > colCacheMaxRows {
		return nil
	}
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if cd := t.colCache.Load(); cd != nil && cd.WriteSeq == t.writeSeq.Load() {
		return cd
	}
	cd, err := t.buildColumnar()
	if err != nil || cd == nil {
		return nil
	}
	t.colCache.Store(cd)
	return cd
}

// buildColumnar scans the heap under the table's read lock — excluding
// writers, so the rows and the recorded writeSeq are one consistent cut —
// and lays every live row out column-major.
func (t *Table) buildColumnar() (*ColData, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	wseq := t.writeSeq.Load()
	ids := make([]int64, 0, len(t.rowIndex))
	for id := range t.rowIndex {
		ids = append(ids, id)
	}
	ids = sortDedupeIDs(ids)
	cols := t.schema.Columns
	cd := &ColData{WriteSeq: wseq, NumCols: len(cols)}
	for start := 0; start < len(ids); start += ColChunkRows {
		end := start + ColChunkRows
		if end > len(ids) {
			end = len(ids)
		}
		b := newChunkBuilder(t.schema, end-start)
		for _, rowID := range ids[start:end] {
			rec, err := t.file.Get(t.rowIndex[rowID])
			if err != nil {
				return nil, err
			}
			_, row, err := decodeStored(rec)
			if err != nil {
				return nil, err
			}
			b.add(rowID, row)
		}
		cd.Chunks = append(cd.Chunks, b.finish())
	}
	if len(ids) == 0 {
		// An empty table still gets a (chunkless) mirror so scans of it can
		// stay on the batched path.
		cd.Chunks = nil
	}
	return cd, nil
}

// chunkBuilder accumulates one chunk row-at-a-time and chooses each column's
// final encoding in finish.
type chunkBuilder struct {
	rowIDs []int64
	cols   []chunkCol
}

type chunkCol struct {
	typ   value.Type
	ints  []int64
	flts  []float64
	strs  []string
	vals  []value.Value
	valid []byte
	nulls int
}

func newChunkBuilder(schema *catalog.Schema, n int) *chunkBuilder {
	b := &chunkBuilder{rowIDs: make([]int64, 0, n), cols: make([]chunkCol, len(schema.Columns))}
	for i := range schema.Columns {
		c := &b.cols[i]
		typ := schema.Columns[i].Type
		c.typ = typ
		c.valid = make([]byte, 0, n)
		switch typ {
		case value.Int:
			c.ints = make([]int64, 0, n)
		case value.Float:
			c.flts = make([]float64, 0, n)
		case value.Text, value.Sequence:
			c.strs = make([]string, 0, n)
		default:
			c.vals = make([]value.Value, 0, n)
		}
	}
	return b
}

func (b *chunkBuilder) add(rowID int64, row value.Row) {
	b.rowIDs = append(b.rowIDs, rowID)
	for i := range b.cols {
		c := &b.cols[i]
		var v value.Value
		if i < len(row) {
			v = row[i]
		}
		if v.IsNull() {
			c.nulls++
			c.valid = append(c.valid, 0)
		} else {
			c.valid = append(c.valid, 1)
		}
		switch {
		case c.ints != nil:
			c.ints = append(c.ints, v.Int())
		case c.flts != nil:
			c.flts = append(c.flts, v.Float())
		case c.strs != nil:
			c.strs = append(c.strs, v.Text())
		default:
			c.vals = append(c.vals, v)
		}
	}
}

// maxDictSize bounds the per-chunk dictionary so codes fit one byte.
const maxDictSize = 255

func (b *chunkBuilder) finish() *ColChunk {
	ch := &ColChunk{RowIDs: b.rowIDs, Cols: make([]ColVec, len(b.cols))}
	for i := range b.cols {
		c := &b.cols[i]
		vec := &ch.Cols[i]
		vec.Type = c.typ
		switch {
		case c.ints != nil:
			vec.Kind, vec.Ints = ColInt, c.ints
		case c.flts != nil:
			vec.Kind, vec.Floats = ColFloat, c.flts
		case c.strs != nil:
			vec.Kind = ColText
			if dict, codes, ok := dictEncode(c.strs); ok {
				vec.Dict = dict
				vec.Codes, vec.CodesRLE = rleOrRaw(codes)
			} else {
				vec.Strs = c.strs
			}
		default:
			vec.Kind, vec.Vals = ColOther, c.vals
		}
		if c.nulls > 0 {
			vec.Valid, vec.ValidRLE = rleOrRaw(c.valid)
		}
	}
	return ch
}

// dictEncode builds a dictionary encoding of the chunk's strings when at most
// maxDictSize distinct values occur. The dictionary preserves first-seen
// order; comparisons always go through the decoded string, so the order
// within the dictionary carries no semantics.
func dictEncode(strs []string) (dict []string, codes []byte, ok bool) {
	idx := make(map[string]int, 16)
	codes = make([]byte, len(strs))
	for i, s := range strs {
		code, seen := idx[s]
		if !seen {
			if len(dict) >= maxDictSize {
				return nil, nil, false
			}
			code = len(dict)
			dict = append(dict, s)
			idx[s] = code
		}
		codes[i] = byte(code)
	}
	return dict, codes, true
}

// rleOrRaw keeps the byte vector raw or run-length encodes it, whichever is
// smaller (a Run costs ~16 resident bytes, so RLE only wins on real runs).
func rleOrRaw(raw []byte) ([]byte, *rle.Sequence) {
	seq := rle.Encode(string(raw))
	if seq.NumRuns()*16 < len(raw) {
		return nil, seq
	}
	return raw, nil
}

// SeesCurrentHeap reports whether the snapshot's view of the table is exactly
// the current heap — i.e. its overlay is empty after folding in every version
// entry. When true, a columnar mirror whose WriteSeq still matches the table
// was built from precisely the rows this snapshot must see.
func (s *Snapshot) SeesCurrentHeap(t *Table) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	ov := s.overlayFor(t)
	t.mu.RLock()
	s.mergeLocked(ov, t)
	t.mu.RUnlock()
	return len(ov.rows) == 0
}
