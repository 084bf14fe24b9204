package exec

// Vectorized (batch-at-a-time) execution for the scan -> filter -> hash-agg
// prefix of the pipeline, MonetDB/X100 style. Rows travel in column-major
// batches of storage.ColChunkRows, read straight out of the table's columnar
// mirror (internal/storage/columnar.go): no per-row heap fetch, no per-row
// value.Row decode, and constant comparisons run as typed kernels
// (kernels.go) that narrow a selection vector instead of pulling rows one
// interface call at a time.
//
// Every full-scan source of a snapshot query reads batches: a single source,
// the first (probe) source of a join and every join build side. So does an
// index probe that yields more than one RowID when a current generation of
// the mirror already exists: it gathers just the listed rows out of the
// chunks into the batch's own vectors, and never builds or patches the
// mirror for them. Everything downstream keeps its row-at-a-time contract:
// batchRowsIter adapts batches back to execRow, with the origins scanIter
// gives, but leaves each row a position in its batch. A value is boxed only
// when a stage reads it, through execRow.val (one value) or execRow.vals
// (the whole row, once), and a cursor boxes only the projected columns its
// caller reads (Rows.Row; Rows.Scan copies from the vectors and
// Rows.Annotations boxes nothing). Grouped aggregation additionally consumes
// batches directly when no ANNOTATION clause or AWHERE intervenes
// (group.go).
//
// The retention rule: the vectors a row points into are reused by the
// scan's next pull — a gather overwrites them, a chunk load re-expands its
// dictionary codes and validity into the same buffers — so an unboxed row
// is valid only until its scan is pulled again. A stage that keeps a row
// past its next pull of its input boxes it first: join build sides and
// UPDATE/DELETE read phases (drainIter), a hash or cross join's current left
// row (combineRows), group buckets, and everything after projection (sort,
// Top-N, DISTINCT, set operations and spill take projected rows, which are
// boxed). Chunks themselves are immutable, so a row read before the next
// pull sees the snapshot's generation whatever writers do meanwhile.
//
// The operators that discard most of their input decide on the vectors
// before the adapter boxes a row (late materialization): a hash join's probe
// side skips rows whose key misses the build table, and a Top-N skips rows
// that cannot enter its full heap. The gate rule: drop a row only when the
// consumer provably emits nothing for it and nothing between the scan and
// the consumer could have raised an error on it.
//
// The planner falls back to the row scan transparently whenever batching
// does not apply — see tryBatchScan for the exact rules.

import (
	"context"
	"encoding/binary"
	"slices"
	"sort"
	"sync/atomic"

	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// batchScans counts scans that actually ran vectorized; the equivalence
// fuzzer asserts it moved, so the batched path cannot silently stop being
// exercised.
var batchScans atomic.Int64

// batchMarkedAggs counts aggregations that consumed batches of a table with
// outdated marks; the fuzzer asserts it moved too, so that combination stays
// compared against the row path.
var batchMarkedAggs atomic.Int64

// batchGatedRows counts rows a consumer's gate dropped before they were
// boxed; the fuzzer asserts it moved too, so the gated path stays compared
// against the row path.
var batchGatedRows atomic.Int64

// bvec is the executor's view of one chunk column: the storage vector with
// dictionary codes and validity expanded into flat byte vectors.
type bvec struct {
	kind  storage.ColKind
	typ   value.Type
	ints  []int64
	flts  []float64
	strs  []string
	dict  []string
	codes []byte
	valid []byte // nil = every row valid; else 1 = valid
	vals  []value.Value
}

// null reports whether row i holds SQL NULL.
func (v *bvec) null(i int32) bool { return v.valid != nil && v.valid[i] == 0 }

// str returns the text payload of row i (dictionary-decoded when needed).
// Only meaningful for ColText vectors with a valid row.
func (v *bvec) str(i int32) string {
	if v.dict != nil {
		return v.dict[v.codes[i]]
	}
	return v.strs[i]
}

// valueAt boxes row i as the exact value.Value the row-at-a-time scan would
// have produced.
func (v *bvec) valueAt(i int32) value.Value {
	if v.null(i) {
		return value.Value{}
	}
	switch v.kind {
	case storage.ColInt:
		return value.NewInt(v.ints[i])
	case storage.ColFloat:
		return value.NewFloat(v.flts[i])
	case storage.ColText:
		if v.typ == value.Sequence {
			return value.NewSequence(v.str(i))
		}
		return value.NewText(v.str(i))
	default:
		return v.vals[i]
	}
}

// appendHashKey appends row i's hash key, the bytes appendHashKey appends for
// v.valueAt(i). Boxing a row costs more than the map probe its key feeds, so a
// TEXT or SEQUENCE row, the usual group key, is keyed from the vector.
func (v *bvec) appendHashKey(dst []byte, i int32) []byte {
	if v.kind != storage.ColText || v.null(i) {
		return appendHashKey(dst, v.valueAt(i))
	}
	s := v.str(i)
	dst = binary.AppendUvarint(dst, uint64(len(s)+2)) // a string's KeyLen
	return value.AppendStringKey(dst, v.typ, s)
}

// batch is one chunk, or the rows gathered from several, plus the selection
// vector the filter kernels narrowed.
type batch struct {
	rowIDs []int64
	vecs   []bvec
	sel    []int32 // surviving row indexes, ascending
}

// rowValues boxes row i into a fresh value.Row (execRow.vals, and the
// batched aggregation's group buckets, keep it).
func (b *batch) rowValues(i int32) value.Row {
	vals := make(value.Row, len(b.vecs))
	for c := range b.vecs {
		vals[c] = b.vecs[c].valueAt(i)
	}
	return vals
}

// batchScanIter streams a table's columnar mirror chunk by chunk, applying
// kernel predicates to the selection vector and the remaining pushed
// predicates row-wise against a scratch row. With a RowID list (ids) it
// gathers only the listed rows instead, up to ColChunkRows per batch.
type batchScanIter struct {
	ctx      context.Context
	src      *sourcePlan
	cd       *storage.ColData
	ids      []int64 // an index probe's ascending RowIDs still to gather; nil = every row
	kernels  []kernelPred
	rowPreds []compiledPred
	// kernelBuf backs kernels for the common one or two (a range's bounds).
	kernelBuf [2]kernelPred
	params    value.Row
	never     bool // a NULL comparison constant: nothing can match

	ci int // next chunk (gathering: the first chunk that may hold ids[0])

	// reused scratch
	b        batch
	sel      []int32
	selAlt   []int32
	codesBuf [][]byte
	validBuf [][]byte
	pos      []int32 // gathering: the hit positions within one chunk
	codes    []byte  // gathering: one column's dictionary codes at pos
	scratch  value.Row
}

// nextBatch returns the next non-empty batch of surviving rows.
func (it *batchScanIter) nextBatch() (*batch, bool, error) {
	for !it.never {
		if err := it.ctx.Err(); err != nil {
			return nil, false, err
		}
		var n int
		if it.ids != nil {
			if n = it.gather(); n == 0 {
				return nil, false, nil
			}
		} else {
			if it.ci == len(it.cd.Chunks) {
				return nil, false, nil
			}
			chunk := it.cd.Chunks[it.ci]
			it.ci++
			if n = chunk.Rows(); n == 0 {
				// An empty chunk has no selection to narrow (otherSel
				// addresses the buffer's first element).
				continue
			}
			it.loadChunk(chunk)
		}
		sel := it.fullSelection(n)
		for k := range it.kernels {
			sel = applyKernel(&it.b.vecs[it.kernels[k].slot], &it.kernels[k], sel, it.otherSel(sel))
			if len(sel) == 0 {
				break
			}
		}
		if len(sel) > 0 && len(it.rowPreds) > 0 {
			var err error
			sel, err = it.applyRowPreds(sel)
			if err != nil {
				return nil, false, err
			}
		}
		if len(sel) == 0 {
			continue
		}
		it.b.sel = sel
		return &it.b, true, nil
	}
	return nil, false, nil
}

// gather fills the batch with the next listed rows the mirror holds, up to
// ColChunkRows of them, and returns how many it gathered (0 once the list or
// the mirror is exhausted). Per chunk it binary-searches the first chunk
// whose last RowID reaches the next wanted ID, merge-walks the wanted IDs
// against the chunk's RowIDs and copies only the hit positions; dictionary
// text is gathered as plain strings, since one batch may span chunks with
// different dictionaries. A listed RowID the mirror lacks is skipped, as
// scanIter skips a row deleted between listing and fetch.
func (it *batchScanIter) gather() int {
	chunks := it.cd.Chunks
	if len(chunks) == 0 {
		return 0
	}
	b := &it.b
	if b.vecs == nil {
		it.initGather(chunks[0]) // every chunk has the table's column kinds
	}
	b.rowIDs = b.rowIDs[:0]
	for c := range b.vecs {
		v := &b.vecs[c]
		v.ints, v.flts, v.strs, v.vals, v.valid = v.ints[:0], v.flts[:0], v.strs[:0], v.vals[:0], nil
	}
	ids := it.ids
	for len(ids) > 0 && len(b.rowIDs) < storage.ColChunkRows {
		it.ci += sort.Search(len(chunks)-it.ci, func(k int) bool {
			rids := chunks[it.ci+k].RowIDs
			return len(rids) > 0 && rids[len(rids)-1] >= ids[0]
		})
		if it.ci == len(chunks) {
			ids = ids[len(ids):]
			break
		}
		chunk := chunks[it.ci]
		rids := chunk.RowIDs
		last := rids[len(rids)-1]
		room := storage.ColChunkRows - len(b.rowIDs)
		pos := it.pos[:0]
		p, j := 0, 0
		for j < len(ids) && ids[j] <= last && len(pos) < room {
			id := ids[j]
			j++
			if rids[p] < id {
				// Dense RowIDs step to the next row; a gap searches.
				if rids[p+1] >= id {
					p++
				} else {
					k, _ := slices.BinarySearch(rids[p:], id)
					p += k
				}
			}
			if rids[p] == id {
				pos = append(pos, int32(p))
			}
		}
		ids = ids[j:]
		it.pos = pos
		if len(pos) > 0 {
			it.gatherChunk(chunk, pos)
		}
	}
	it.ids = ids // empty once exhausted, never nil: a nil list means a full scan
	return len(b.rowIDs)
}

// initGather sizes the gather vectors once, for the largest batch the RowID
// list can fill, carving the columns of one kind out of one allocation: a
// short probe pays a handful of allocations, not one per column and growth.
func (it *batchScanIter) initGather(chunk *storage.ColChunk) {
	n := min(len(it.ids), storage.ColChunkRows)
	var kinds [storage.ColOther + 1]int
	for c := range chunk.Cols {
		kinds[chunk.Cols[c].Kind]++
	}
	ints := make([]int64, (1+kinds[storage.ColInt])*n) // the RowIDs, then the INT columns
	it.b.rowIDs, ints = ints[:0:n], ints[n:]
	flts := make([]float64, kinds[storage.ColFloat]*n)
	strs := make([]string, kinds[storage.ColText]*n)
	vals := make([]value.Value, kinds[storage.ColOther]*n)
	it.b.vecs = make([]bvec, len(chunk.Cols))
	for c := range chunk.Cols {
		col, v := &chunk.Cols[c], &it.b.vecs[c]
		v.kind, v.typ = col.Kind, col.Type
		switch col.Kind {
		case storage.ColInt:
			v.ints, ints = ints[:0:n], ints[n:]
		case storage.ColFloat:
			v.flts, flts = flts[:0:n], flts[n:]
		case storage.ColText:
			v.strs, strs = strs[:0:n], strs[n:]
		default:
			v.vals, vals = vals[:0:n], vals[n:]
		}
	}
	sels := make([]int32, 2*n)
	it.pos, it.sel = sels[:0:n], sels[n:]
}

// gatherChunk appends the chunk's rows at pos (ascending) to the batch.
func (it *batchScanIter) gatherChunk(chunk *storage.ColChunk, pos []int32) {
	b := &it.b
	before := len(b.rowIDs)
	for _, p := range pos {
		b.rowIDs = append(b.rowIDs, chunk.RowIDs[p])
	}
	for c := range chunk.Cols {
		col, v := &chunk.Cols[c], &b.vecs[c]
		switch {
		case col.Kind == storage.ColInt:
			for _, p := range pos {
				v.ints = append(v.ints, col.Ints[p])
			}
		case col.Kind == storage.ColFloat:
			for _, p := range pos {
				v.flts = append(v.flts, col.Floats[p])
			}
		case col.Dict != nil:
			it.codes = col.AppendCodesAt(it.codes[:0], pos)
			for _, code := range it.codes {
				v.strs = append(v.strs, col.Dict[code])
			}
		case col.Kind == storage.ColText:
			for _, p := range pos {
				v.strs = append(v.strs, col.Strs[p])
			}
		default:
			for _, p := range pos {
				v.vals = append(v.vals, col.Vals[p])
			}
		}
		if v.valid == nil && (col.Valid != nil || col.ValidRLE != nil) {
			// The batch's first chunk with NULLs in the column: the rows
			// gathered before it were all valid.
			if it.validBuf == nil {
				it.validBuf = make([][]byte, len(b.vecs))
			}
			if it.validBuf[c] == nil {
				it.validBuf[c] = make([]byte, 0, cap(b.rowIDs))
			}
			v.valid = it.validBuf[c][:0]
			for range before {
				v.valid = append(v.valid, 1)
			}
		}
		if v.valid != nil {
			v.valid = col.AppendValidAt(v.valid, pos)
			it.validBuf[c] = v.valid
		}
	}
}

// loadChunk points the batch's vectors at the chunk, expanding compressed
// dictionary codes and validity into per-column scratch buffers.
func (it *batchScanIter) loadChunk(chunk *storage.ColChunk) {
	if it.b.vecs == nil {
		it.b.vecs = make([]bvec, len(chunk.Cols))
		it.codesBuf = make([][]byte, len(chunk.Cols))
		it.validBuf = make([][]byte, len(chunk.Cols))
	}
	it.b.rowIDs = chunk.RowIDs
	for c := range chunk.Cols {
		col := &chunk.Cols[c]
		v := &it.b.vecs[c]
		*v = bvec{
			kind: col.Kind,
			typ:  col.Type,
			ints: col.Ints,
			flts: col.Floats,
			strs: col.Strs,
			dict: col.Dict,
			vals: col.Vals,
		}
		// A raw vector is the chunk's own, shared by every reader of the
		// mirror generation: only a decoded copy may become scratch that a
		// later chunk or gather overwrites.
		if col.Dict != nil {
			v.codes = col.DecodeCodes(it.codesBuf[c])
			if col.CodesRLE != nil {
				it.codesBuf[c] = v.codes
			}
		}
		if col.Valid != nil || col.ValidRLE != nil {
			v.valid = col.DecodeValid(it.validBuf[c])
			if col.ValidRLE != nil {
				it.validBuf[c] = v.valid
			}
		}
	}
}

func (it *batchScanIter) fullSelection(n int) []int32 {
	if cap(it.sel) < n {
		it.sel = make([]int32, n)
	}
	it.sel = it.sel[:n]
	for i := range it.sel {
		it.sel[i] = int32(i)
	}
	return it.sel
}

// otherSel returns the spare selection buffer so a kernel can write its
// output without clobbering its input.
func (it *batchScanIter) otherSel(cur []int32) []int32 {
	n := cap(cur)
	if &cur[:1][0] == &it.sel[:1][0] {
		if cap(it.selAlt) < n {
			it.selAlt = make([]int32, 0, n)
		}
		return it.selAlt[:0]
	}
	if cap(it.sel) < n {
		it.sel = make([]int32, 0, n)
	}
	return it.sel[:0]
}

// applyRowPreds evaluates the non-kernelable pushed predicates exactly like
// the row scan: full-row materialization into a reused scratch row, then
// compiledPred.eval at the source offset.
func (it *batchScanIter) applyRowPreds(sel []int32) ([]int32, error) {
	if it.scratch == nil {
		it.scratch = make(value.Row, len(it.b.vecs))
	}
	out := sel[:0]
	for _, i := range sel {
		for c := range it.b.vecs {
			it.scratch[c] = it.b.vecs[c].valueAt(i)
		}
		ok, err := evalPreds(it.rowPreds, it.scratch, it.src.offset, it.params)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

// tryBatchScan decides whether one source — a single source, a join's first
// source or a join build side — can run vectorized and builds the batch scan
// when it can. The fallback rules, checked here in order:
//
//   - the session has not disabled vectorization (NoVectorize);
//   - the query runs under an MVCC snapshot (cursors inside explicit
//     transactions read the live heap and stay on the row path);
//   - the source is a full scan (ids == nil), or an index probe whose
//     ascending RowID list ids holds more than one RowID (scanSource keeps a
//     single row on the row scan: it has nothing to vectorize);
//   - the table has a columnar mirror (small enough, no build error). A full
//     scan builds or patches it; a probe only reads a generation that is
//     already current (Table.CurrentColumnar), because a patch re-reads a
//     chunk per written row and a build the whole table;
//   - the snapshot sees the current heap for the table AND the mirror is
//     still current — the two-sided handshake described in
//     internal/storage/columnar.go.
//
// Pushed predicates never block batching: constant comparisons on
// INT/FLOAT/TEXT/SEQUENCE columns become typed kernels, everything else
// evaluates row-wise per batch with identical semantics. A probe's RowID
// list is only a superset, so every pushed predicate is applied to the
// gathered rows too.
func (s *Session) tryBatchScan(ctx context.Context, src *sourcePlan, params value.Row, snap *storage.Snapshot, ids []int64) *batchRowsIter {
	if s.NoVectorize || snap == nil {
		return nil
	}
	var cd *storage.ColData
	if ids == nil {
		cd = src.tbl.ColumnarData()
	} else {
		cd = src.tbl.CurrentColumnar()
	}
	if cd == nil || !snap.SeesCurrentHeap(src.tbl) || cd.WriteSeq != src.tbl.WriteSeq() {
		return nil
	}
	batchScans.Add(1)
	// The adapter and its scan are one allocation: a short probe pays for
	// little beyond the rows it gathers.
	a := &batchRowsIter{scan: batchScanIter{ctx: ctx, src: src, cd: cd, ids: ids, params: params}}
	it := &a.scan
	it.kernels = it.kernelBuf[:0]
	schema := src.tbl.Schema()
	for _, p := range src.preds {
		k, kind := compileKernel(s, p, src, schema, params)
		switch kind {
		case kernelYes:
			it.kernels = append(it.kernels, k)
		case kernelNever:
			it.never = true
		default:
			it.rowPreds = append(it.rowPreds, p)
		}
	}
	return a
}

// batchRowsIter adapts batches back to the row-at-a-time contract: it emits
// the rows scanIter would, in the same order and with the same (table,
// RowID) origin, each still a position in the current batch (see the
// retention rule above).
type batchRowsIter struct {
	scan batchScanIter
	// keep, when set, is the consumer's gate, asked before a row is boxed; a
	// row it rejects is skipped. A gate may reject a row only when its
	// consumer provably emits nothing for it and nothing between the scan and
	// the consumer could have raised an error on it (hashJoinIter.probeGate,
	// topNIter.gate).
	keep  func(b *batch, i int32) bool
	gated int64 // rows keep rejected in the current batch
	b     *batch
	pos   int
	// origins is the unused tail of the chunk each emitted row's one-element
	// origins slice is carved from. A chunk is never reused: rows kept
	// downstream hold their slices.
	origins []origin
}

// originChunk is the most origins one chunk holds: 16 of 24 bytes fill the
// 384-byte size class exactly, and a chunk under 512 bytes carries no
// allocation header (the runtime prefixes one to larger objects holding
// pointers, which pushes a power-of-two count into the next size class), so
// chunked origins cost the bytes per-row slices did, in a sixteenth of the
// allocations.
const originChunk = 16

func (a *batchRowsIter) Next() (execRow, bool, error) {
	// Surface cancellation per emitted row, like scanIter: a buffered batch
	// must not keep a canceled cursor streaming for up to 1024 more rows.
	if err := a.scan.ctx.Err(); err != nil {
		return execRow{}, false, err
	}
	for {
		if a.b == nil || a.pos >= len(a.b.sel) {
			if a.gated > 0 {
				batchGatedRows.Add(a.gated)
				a.gated = 0
			}
			b, ok, err := a.scan.nextBatch()
			if err != nil || !ok {
				return execRow{}, false, err
			}
			a.b, a.pos = b, 0
		}
		i := a.b.sel[a.pos]
		a.pos++
		if a.keep != nil && !a.keep(a.b, i) {
			a.gated++
			continue
		}
		return execRow{b: a.b, at: i, origins: a.origin(a.b.rowIDs[i])}, true, nil
	}
}

// origin returns a one-element origins slice for the row just taken from
// the batch, carved from the current chunk; only emitted rows take one.
func (a *batchRowsIter) origin(rowID int64) []origin {
	if len(a.origins) == 0 {
		// No chunk outgrows the rows left in the batch.
		a.origins = make([]origin, min(originChunk, len(a.b.sel)-a.pos+1))
	}
	o := a.origins[:1:1]
	o[0] = origin{table: a.scan.src.tbl.Name(), rowID: rowID}
	a.origins = a.origins[1:]
	return o
}
