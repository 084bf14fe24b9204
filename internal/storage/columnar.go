package storage

// Columnar mirror: a column-major copy of one table's heap, built lazily for
// the vectorized executor (internal/exec/batch.go) and usable only for scan
// shapes that read the table exactly as the current heap stores it.
//
// The mirror is a pure acceleration structure — the heap stays the source of
// truth — and it is kept in generations. A generation is one immutable
// ColData: its chunks are never written after publication, so a scan holding
// generation n keeps reading exactly the rows it was built from whatever is
// written later. Consistency is a two-part handshake:
//
//   - every heap mutation bumps Table.writeSeq (Table.write); a ColData
//     carries the writeSeq observed under the table's read lock while it was
//     built, so ColData.WriteSeq == Table.WriteSeq() proves the generation
//     still mirrors the current heap;
//   - the executor additionally asks the MVCC layer whether its snapshot
//     sees the current heap for the table (Snapshot.SeesCurrentHeap): a
//     non-empty overlay means some row must be read as a before-image, and
//     the scan falls back to the row-at-a-time path.
//
// Only a full scan builds or patches a generation (ColumnarData). A reader of
// an index probe's few rows takes one only if it is already current
// (CurrentColumnar) and reads the heap otherwise.
//
// A write does not drop the mirror. While one exists, Table.write appends the
// written RowID to a bounded dirty list (a table never scanned vectorized
// tracks nothing), and the next ColumnarData call builds generation n+1 by
// copy-on-write at chunk granularity: each dirty RowID maps to the chunk
// whose RowID range covers it (IDs past the last chunk extend the tail), only
// those chunks are re-read from the heap, and every other *ColChunk pointer
// is shared with generation n. The first build lays every row out through
// the same chunk builder, and it is also the fall-back, chosen from what the
// builder can see: no previous generation (never built, or dropped because
// the dirty list outgrew colDirtyMax or the table outgrew colCacheMaxRows),
// dirty rows in more than half the chunks, or deletes having left the chunks
// less than half full.
//
// Rows are sliced into chunks of at most ColChunkRows in ascending RowID
// order — the same order (and, by the handshake above, the same row set) the
// row scan produces; a patch preserves the order, splits a chunk that
// outgrows ColChunkRows and drops one that empties. Within a chunk each
// column becomes a typed vector: INT and FLOAT columns as raw int64/float64
// slices, TEXT/SEQUENCE columns either raw or dictionary-coded when the chunk
// holds few distinct strings, everything else as boxed values. The dictionary
// code vector and the NULL-validity vector are byte strings, and internal/rle
// compresses them per chunk whenever the run-length form is smaller — which
// is exactly the annotation-heavy / low-cardinality / mostly-non-NULL shapes
// the paper's workloads produce.

import (
	"sort"

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
// trade for huge tables until chunks can page in and out. (A variable only so
// a test can reach the bound with a small table.)
var colCacheMaxRows = 4 << 20

// colDirtyMax bounds the dirty list: a write stream that no scan follows
// holds at most this many RowIDs and then frees the mirror.
const colDirtyMax = 4096

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

// AppendCodesAt appends the dictionary codes of rows pos (ascending) to dst,
// walking a run-length form once instead of expanding it.
func (v *ColVec) AppendCodesAt(dst []byte, pos []int32) []byte {
	if v.CodesRLE != nil {
		return v.CodesRLE.AppendAt(dst, pos)
	}
	for _, p := range pos {
		dst = append(dst, v.Codes[p])
	}
	return dst
}

// AppendValidAt appends the validity (1 = valid) of rows pos (ascending) to
// dst, walking a run-length form once instead of expanding it.
func (v *ColVec) AppendValidAt(dst []byte, pos []int32) []byte {
	switch {
	case v.ValidRLE != nil:
		return v.ValidRLE.AppendAt(dst, pos)
	case v.Valid != nil:
		for _, p := range pos {
			dst = append(dst, v.Valid[p])
		}
		return dst
	default:
		for range pos {
			dst = append(dst, 1)
		}
		return dst
	}
}

// ColChunk is up to ColChunkRows consecutive rows in column-major form.
type ColChunk struct {
	RowIDs []int64
	Cols   []ColVec
}

// Rows returns the number of rows in the chunk.
func (c *ColChunk) Rows() int { return len(c.RowIDs) }

// ColData is one generation of a table's columnar mirror: every live row,
// chunked, plus the writeSeq that proves (or disproves) its currency. It and
// its chunks are immutable once returned; consecutive generations share the
// chunks no write touched.
type ColData struct {
	WriteSeq uint64
	NumCols  int
	Chunks   []*ColChunk
}

// ColumnarStats counts what maintaining the table's mirror has cost.
type ColumnarStats struct {
	FullBuilds    uint64 // generations built by reading every row
	Patches       uint64 // generations built from the previous one
	ChunksRebuilt uint64 // chunks the patches re-read from the heap
	Dropped       uint64 // mirrors freed by colDirtyMax or colCacheMaxRows
}

// ColumnarStats returns the mirror maintenance counters.
func (t *Table) ColumnarStats() ColumnarStats {
	return ColumnarStats{
		FullBuilds:    t.colStats.fullBuilds.Load(),
		Patches:       t.colStats.patches.Load(),
		ChunksRebuilt: t.colStats.chunksRebuilt.Load(),
		Dropped:       t.colStats.dropped.Load(),
	}
}

// markColumnarDirty records that row rowID was just written, so the next
// generation re-reads its chunk. The caller must hold t.mu exclusively.
func (t *Table) markColumnarDirty(rowID int64) {
	if t.colCache.Load() == nil {
		return
	}
	if len(t.colDirty) >= colDirtyMax {
		t.dropColumnar()
		return
	}
	t.colDirty = append(t.colDirty, rowID)
}

// dropColumnar frees the mirror and its dirty list. The caller must hold
// t.mu, exclusively or shared with colMu.
func (t *Table) dropColumnar() {
	t.colCache.Store(nil)
	t.colDirty = nil
	t.colStats.dropped.Add(1)
}

// CurrentColumnar returns the cached generation of the table's columnar
// mirror when it still mirrors the current heap, and nil otherwise. Unlike
// ColumnarData it never builds or patches one: a reader of a few rows must
// not pay a chunk re-read per written row, let alone a read of the whole
// table. The caller must still verify currency against its own snapshot.
func (t *Table) CurrentColumnar() *ColData {
	if cd := t.colCache.Load(); cd != nil && cd.WriteSeq == t.writeSeq.Load() {
		return cd
	}
	return nil
}

// ColumnarData returns the current generation of the table's columnar mirror,
// building (and caching) it when missing or stale. It returns nil when the
// table is too large to mirror or a heap read fails; callers fall back to the
// row scan. The caller must still verify currency against its own snapshot —
// see the package comment.
func (t *Table) ColumnarData() *ColData {
	if cd := t.CurrentColumnar(); cd != nil {
		return cd
	}
	t.colMu.Lock()
	defer t.colMu.Unlock()
	// The read lock excludes writers until the new generation is published:
	// the rows read, the dirty list consumed and the writeSeq recorded are one
	// consistent cut, and no write can fall between a generation and the list
	// of what changed after it.
	t.mu.RLock()
	defer t.mu.RUnlock()
	prev, wseq := t.colCache.Load(), t.writeSeq.Load()
	if prev != nil && prev.WriteSeq == wseq {
		return prev
	}
	if t.rows.len() > colCacheMaxRows {
		if prev != nil {
			t.dropColumnar()
		}
		return nil
	}
	chunks, err := t.nextChunks(prev)
	if err != nil {
		// Nothing was published or consumed; the next call tries again.
		return nil
	}
	cd := &ColData{WriteSeq: wseq, NumCols: len(t.schema.Columns), Chunks: chunks}
	t.colDirty = t.colDirty[:0]
	t.colCache.Store(cd)
	return cd
}

// nextChunks lays out the chunks of the generation after prev (nil = none)
// from the current heap: prev's chunks with the dirty ones rebuilt when that
// is the cheaper way, every row read afresh otherwise. The caller must hold
// colMu and t.mu.
func (t *Table) nextChunks(prev *ColData) ([]*ColChunk, error) {
	// Deletes thin chunks out and a patch never merges them: once those before
	// the tail average under half full, lay every row out again.
	if prev != nil && len(prev.Chunks) > 0 && t.rows.len()*2 >= (len(prev.Chunks)-1)*ColChunkRows {
		if chunks, ok, err := t.patchChunks(prev.Chunks); ok || err != nil {
			return chunks, err
		}
	}
	// An empty table still gets a (chunkless) mirror so scans of it can stay
	// on the batched path.
	chunks, err := t.buildChunks(nil, t.rows.appendIDs(make([]int64, 0, t.rows.len())))
	if err == nil {
		t.colStats.fullBuilds.Add(1)
	}
	return chunks, err
}

// patchChunks returns old with every chunk that holds a dirty row rebuilt,
// sharing the rest. ok is false when the dirty rows spread over more than
// half the chunks: a bulk write is cheaper to rebuild than to patch.
func (t *Table) patchChunks(old []*ColChunk) (chunks []*ColChunk, ok bool, err error) {
	t.colDirty = sortDedupeIDs(t.colDirty)
	dirty := t.colDirty
	// Chunk i covers the RowIDs from its first up to chunk i+1's first; the
	// first chunk also takes everything below it and the last everything
	// above, so a row lands between its neighbours in RowID order wherever a
	// rollback re-inserts it.
	type span struct{ chunk, lo, hi int } // dirty[lo:hi] fall in old[chunk]
	var touched []span
	for lo := 0; lo < len(dirty); {
		ci := sort.Search(len(old), func(i int) bool { return old[i].RowIDs[0] > dirty[lo] }) - 1
		if ci < 0 {
			ci = 0
		}
		hi := lo + 1
		for hi < len(dirty) && (ci == len(old)-1 || dirty[hi] < old[ci+1].RowIDs[0]) {
			hi++
		}
		touched = append(touched, span{ci, lo, hi})
		lo = hi
	}
	if len(touched)*2 > len(old) {
		return nil, false, nil
	}
	chunks = make([]*ColChunk, 0, len(old)+1)
	next := 0
	for _, sp := range touched {
		chunks = append(chunks, old[next:sp.chunk]...)
		// The chunk's rows now: what it held plus what was written in its
		// range, less what is no longer in the table.
		ids := append(append(make([]int64, 0, ColChunkRows+sp.hi-sp.lo), old[sp.chunk].RowIDs...), dirty[sp.lo:sp.hi]...)
		live := ids[:0]
		for _, id := range sortDedupeIDs(ids) {
			if _, ok := t.rows.get(id); ok {
				live = append(live, id)
			}
		}
		if chunks, err = t.buildChunks(chunks, live); err != nil {
			return nil, false, err
		}
		next = sp.chunk + 1
	}
	t.colStats.patches.Add(1)
	t.colStats.chunksRebuilt.Add(uint64(len(touched)))
	return append(chunks, old[next:]...), true, nil
}

// buildChunks reads rows ids (ascending) from the heap and appends them to
// dst column-major, ColChunkRows to a chunk.
func (t *Table) buildChunks(dst []*ColChunk, ids []int64) ([]*ColChunk, error) {
	for len(ids) > 0 {
		n := min(len(ids), ColChunkRows)
		b := newChunkBuilder(t.schema, n)
		for _, rowID := range ids[:n] {
			rid, _ := t.rows.get(rowID)
			rec, err := t.file.Get(rid)
			if err != nil {
				return nil, err
			}
			_, row, err := decodeStored(rec)
			if err != nil {
				return nil, err
			}
			b.add(rowID, row)
		}
		dst = append(dst, b.finish())
		ids = ids[n:]
	}
	return dst, nil
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
