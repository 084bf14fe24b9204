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
// the first (probe) source of a join and every join build side. Everything
// downstream keeps its row-at-a-time contract: batchRowsIter adapts batches
// back to execRow (values + origins, exactly what scanIter emits) and is the
// one place that boxes a scanned value, so joins, sorts, set ops, spill and
// annotation decoration are untouched. Grouped aggregation additionally
// consumes batches directly when no ANNOTATION clause or AWHERE intervenes
// (group.go).
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
	"strconv"
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

// appendGroupKey renders row i's group-key part exactly like the boxed
// appendGroupKey, without boxing the common kinds.
func (v *bvec) appendGroupKey(dst []byte, i int32) []byte {
	var num [32]byte
	switch {
	case v.null(i):
		return append(dst, keyNull)
	case v.kind == storage.ColInt:
		return appendKeyPart(dst, strconv.AppendInt(num[:0], v.ints[i], 10))
	case v.kind == storage.ColFloat:
		return appendKeyPart(dst, strconv.AppendFloat(num[:0], v.flts[i], 'g', -1, 64))
	case v.kind == storage.ColText:
		return appendKeyPart(dst, v.str(i))
	default:
		return appendGroupKey(dst, v.vals[i])
	}
}

// batch is one chunk plus the selection vector the filter kernels narrowed.
type batch struct {
	rowIDs []int64
	vecs   []bvec
	sel    []int32 // surviving row indexes, ascending
}

// rowValues materializes row i as a fresh value.Row (downstream operators
// retain row references, so the slice cannot be reused).
func (b *batch) rowValues(i int32) value.Row {
	vals := make(value.Row, len(b.vecs))
	for c := range b.vecs {
		vals[c] = b.vecs[c].valueAt(i)
	}
	return vals
}

// batchScanIter streams a table's columnar mirror chunk by chunk, applying
// kernel predicates to the selection vector and the remaining pushed
// predicates row-wise against a scratch row.
type batchScanIter struct {
	ctx      context.Context
	src      *sourcePlan
	cd       *storage.ColData
	kernels  []kernelPred
	rowPreds []compiledPred
	params   value.Row
	never    bool // a NULL comparison constant: nothing can match

	ci int // next chunk

	// reused scratch
	b        batch
	sel      []int32
	selAlt   []int32
	codesBuf [][]byte
	validBuf [][]byte
	scratch  value.Row
}

// nextBatch returns the next non-empty batch of surviving rows.
func (it *batchScanIter) nextBatch() (*batch, bool, error) {
	for it.ci < len(it.cd.Chunks) {
		if err := it.ctx.Err(); err != nil {
			return nil, false, err
		}
		chunk := it.cd.Chunks[it.ci]
		it.ci++
		if it.never || chunk.Rows() == 0 {
			// An empty chunk has no selection to narrow (otherSel addresses
			// the buffer's first element).
			continue
		}
		it.loadChunk(chunk)
		sel := it.fullSelection(chunk.Rows())
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
		if col.Dict != nil {
			it.codesBuf[c] = col.DecodeCodes(it.codesBuf[c])
			v.codes = it.codesBuf[c]
		}
		if col.Valid != nil || col.ValidRLE != nil {
			it.validBuf[c] = col.DecodeValid(it.validBuf[c])
			v.valid = it.validBuf[c]
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
//   - the source is a full scan (index probes produce row subsets);
//   - the table has a columnar mirror (small enough, no build error);
//   - the snapshot sees the current heap for the table AND the mirror is
//     still current — the two-sided handshake described in
//     internal/storage/columnar.go.
//
// Pushed predicates never block batching: constant comparisons on
// INT/FLOAT/TEXT/SEQUENCE columns become typed kernels, everything else
// evaluates row-wise per batch with identical semantics.
func (s *Session) tryBatchScan(ctx context.Context, src *sourcePlan, params value.Row, snap *storage.Snapshot) *batchScanIter {
	if s.NoVectorize || snap == nil || !src.access.fullScan() {
		return nil
	}
	cd := src.tbl.ColumnarData()
	if cd == nil || !snap.SeesCurrentHeap(src.tbl) || cd.WriteSeq != src.tbl.WriteSeq() {
		return nil
	}
	batchScans.Add(1)
	it := &batchScanIter{ctx: ctx, src: src, cd: cd, params: params}
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
	return it
}

// batchRowsIter adapts batches back to the row-at-a-time contract: it emits
// exactly what scanIter would — the decoded row values plus a (table, RowID)
// origin — so every downstream operator works unchanged.
type batchRowsIter struct {
	src *batchScanIter
	// keep, when set, is the consumer's gate, asked before a row is boxed; a
	// row it rejects is skipped. A gate may reject a row only when its
	// consumer provably emits nothing for it and nothing between the scan and
	// the consumer could have raised an error on it (hashJoinIter.probeGate,
	// topNIter.gate).
	keep  func(b *batch, i int32) bool
	gated int64 // rows keep rejected in the current batch
	b     *batch
	pos   int
}

func (a *batchRowsIter) Next() (execRow, bool, error) {
	// Surface cancellation per emitted row, like scanIter: a buffered batch
	// must not keep a canceled cursor streaming for up to 1024 more rows.
	if err := a.src.ctx.Err(); err != nil {
		return execRow{}, false, err
	}
	for {
		if a.b == nil || a.pos >= len(a.b.sel) {
			if a.gated > 0 {
				batchGatedRows.Add(a.gated)
				a.gated = 0
			}
			b, ok, err := a.src.nextBatch()
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
		return execRow{
			values:  a.b.rowValues(i),
			origins: []origin{{table: a.src.src.tbl.Name(), rowID: a.b.rowIDs[i]}},
		}, true, nil
	}
}
