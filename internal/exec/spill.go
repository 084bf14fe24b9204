package exec

// Spill infrastructure for the blocking operators (grouped aggregation,
// DISTINCT, external sort): a per-operator memory budget, a lazily created
// temp-file pager shared by the operator's runs, binary codecs for rows and
// annotations, and a partitioned hash table that moves itself to disk when
// the budget is exceeded.
//
// The budget bounds the operator's *transient* state — the in-memory hash
// table or sort batch — not the size of the input or the output: an operator
// whose working set exceeds the budget flushes it to uvarint-framed records
// in heap run files (internal/heap) on a pager.OpenTemp file, and finishes
// with a streaming merge whose memory cost is one page buffer per run.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"bdbms/internal/annotation"
	"bdbms/internal/heap"
	"bdbms/internal/pager"
	"bdbms/internal/value"
)

// ErrSpill categorizes I/O failures on a query's spill surface (creating
// the temp file, or reading/writing run pages in it — typically ENOSPC on
// a full disk). A query failing with errors.Is(err, ErrSpill) lost only
// its own scratch space: table data is untouched, the temp file has been
// removed, and the session remains fully usable.
var ErrSpill = errors.New("exec: query spill I/O failed")

// spillEvents counts spill flushes across all operators; the spill tests use
// it to prove a small budget actually pushed state to disk.
var spillEvents atomic.Int64

// defaultSpillBudget is the per-operator memory budget when the session does
// not set one: each blocking operator (group, distinct, sort, top-n input)
// may hold roughly this many bytes before spilling to its temp file.
const defaultSpillBudget = 8 << 20

// spillPartitions is the fan-out of a spilling hash table.
const spillPartitions = 16

// spillBudget returns the session's per-operator memory budget in bytes.
func (s *Session) spillBudget() int {
	if s.SpillBudget > 0 {
		return s.SpillBudget
	}
	return defaultSpillBudget
}

// openSpillPager creates the temp pager backing an operator's spill file.
// It is a variable so the fault-injection tests can swap in a pager that
// runs out of disk mid-query.
var openSpillPager = func() (pager.Pager, error) {
	return pager.OpenTemp("")
}

// spillFile lazily opens one temp pager per blocking operator. It must be
// closed when the operator's output is exhausted (the cursor's finish hook
// does it), which also deletes the backing file.
type spillFile struct {
	pgr pager.Pager
}

func (sf *spillFile) pager() (pager.Pager, error) {
	if sf.pgr == nil {
		p, err := openSpillPager()
		if err != nil {
			return nil, fmt.Errorf("%w: create temp file: %w", ErrSpill, err)
		}
		sf.pgr = spillPager{p}
	}
	return sf.pgr, nil
}

// spilled reports whether a temp file was actually created.
func (sf *spillFile) spilled() bool { return sf.pgr != nil }

func (sf *spillFile) Close() {
	if sf.pgr != nil {
		_ = sf.pgr.Close()
		sf.pgr = nil
	}
}

// spillPager wraps the temp-file pager so every I/O failure on the spill
// surface is categorized under ErrSpill: the run writers and readers built
// on it (heap.RunWriter/RunReader) propagate page errors verbatim, so
// wrapping here covers all of them at once. Close passes through to the
// embedded pager, which deletes the backing temp file.
type spillPager struct {
	pager.Pager
}

func (p spillPager) Allocate() (pager.PageID, error) {
	id, err := p.Pager.Allocate()
	if err != nil {
		return id, fmt.Errorf("%w: %w", ErrSpill, err)
	}
	return id, nil
}

func (p spillPager) Read(id pager.PageID, dst []byte) error {
	if err := p.Pager.Read(id, dst); err != nil {
		return fmt.Errorf("%w: %w", ErrSpill, err)
	}
	return nil
}

func (p spillPager) Write(id pager.PageID, data []byte) error {
	if err := p.Pager.Write(id, data); err != nil {
		return fmt.Errorf("%w: %w", ErrSpill, err)
	}
	return nil
}

// --- binary codec ---------------------------------------------------------------------------

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// errCorruptSpill reports a spill record that cannot be decoded or placed.
var errCorruptSpill = errors.New("exec: corrupt spill record")

// byteReader decodes the codec above; the first error sticks.
type byteReader struct {
	buf []byte
	err error
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = errCorruptSpill
	}
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *byteReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *byteReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || uint64(len(r.buf)) < n {
		r.fail()
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *byteReader) str() string { return string(r.bytes()) }

func (r *byteReader) byteVal() byte {
	if r.err != nil || len(r.buf) == 0 {
		r.fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *byteReader) float() float64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[:8]))
	r.buf = r.buf[8:]
	return v
}

func appendFloat(dst []byte, f float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	return append(dst, b[:]...)
}

func (r *byteReader) row() value.Row {
	b := r.bytes()
	if r.err != nil {
		return nil
	}
	row, err := value.DecodeRow(b)
	if err != nil {
		r.err = err
		return nil
	}
	return row
}

// appendValueRow frames value.EncodeRow's encoding of row like appendBytes,
// encoding in place: the row goes first and is shifted past its length.
func appendValueRow(dst []byte, row value.Row) []byte {
	start := len(dst)
	dst = value.AppendRow(dst, row)
	n := len(dst) - start
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	dst = append(dst, hdr[:h]...)
	copy(dst[start+h:], dst[start:start+n])
	copy(dst[start:], hdr[:h])
	return dst
}

func (r *byteReader) oneValue() value.Value {
	if r.err != nil {
		return value.Value{}
	}
	v, n, err := value.DecodeValue(r.buf)
	if err != nil {
		r.err = err
		return value.Value{}
	}
	r.buf = r.buf[n:]
	return v
}

// appendOneValue writes one self-delimiting value (DecodeValue reports how
// many bytes it consumed, so no length frame is needed).
func appendOneValue(dst []byte, v value.Value) []byte {
	return v.Encode(dst)
}

// --- annotation codec -----------------------------------------------------------------------

// Spilled rows carry their full annotation payload, so a round trip through
// the temp file preserves propagation semantics exactly (IDs included, which
// is what keeps union-by-ID deduplication correct when spilled and resident
// rows merge).

func appendAnnotation(dst []byte, a *annotation.Annotation) []byte {
	dst = appendVarint(dst, a.ID)
	dst = appendString(dst, a.AnnTable)
	dst = appendString(dst, a.UserTable)
	dst = appendString(dst, a.Body)
	dst = appendString(dst, a.Author)
	dst = appendVarint(dst, a.CreatedAt.UnixNano())
	if a.Archived {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendVarint(dst, a.ArchivedAt.UnixNano())
	dst = appendUvarint(dst, uint64(len(a.Regions)))
	for _, rg := range a.Regions {
		dst = appendString(dst, rg.Table)
		dst = appendVarint(dst, int64(rg.ColStart))
		dst = appendVarint(dst, int64(rg.ColEnd))
		dst = appendVarint(dst, rg.RowStart)
		dst = appendVarint(dst, rg.RowEnd)
	}
	return dst
}

func (r *byteReader) annotationRec() *annotation.Annotation {
	a := &annotation.Annotation{
		ID:        r.varint(),
		AnnTable:  r.str(),
		UserTable: r.str(),
		Body:      r.str(),
		Author:    r.str(),
	}
	a.CreatedAt = time.Unix(0, r.varint()).UTC()
	a.Archived = r.byteVal() != 0
	a.ArchivedAt = time.Unix(0, r.varint()).UTC()
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) { // every region takes bytes
		r.fail()
		return nil
	}
	a.Regions = make([]annotation.Region, 0, n)
	for i := uint64(0); i < n; i++ {
		a.Regions = append(a.Regions, annotation.Region{
			Table:    r.str(),
			ColStart: int(r.varint()),
			ColEnd:   int(r.varint()),
			RowStart: r.varint(),
			RowEnd:   r.varint(),
		})
	}
	return a
}

func appendAnnCells(dst []byte, anns [][]*annotation.Annotation) []byte {
	dst = appendUvarint(dst, uint64(len(anns)))
	for _, cell := range anns {
		dst = appendUvarint(dst, uint64(len(cell)))
		for _, a := range cell {
			dst = appendAnnotation(dst, a)
		}
	}
	return dst
}

// annCells decodes the cells appendAnnCells wrote. With sparse set it
// returns nil when every cell is empty, so a record that only folds into a
// kept bucket allocates nothing for them. Zero cells — a row that never had
// any — decode as nil either way.
func (r *byteReader) annCells(sparse bool) [][]*annotation.Annotation {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) { // every cell takes a byte
		r.fail()
		return nil
	}
	var anns [][]*annotation.Annotation
	if !sparse && n > 0 {
		anns = make([][]*annotation.Annotation, n)
	}
	for c := uint64(0); c < n; c++ {
		m := r.uvarint()
		if r.err != nil {
			return nil
		}
		for i := uint64(0); i < m; i++ {
			a := r.annotationRec()
			if r.err != nil {
				return nil
			}
			if anns == nil {
				anns = make([][]*annotation.Annotation, n)
			}
			anns[c] = append(anns[c], a)
		}
	}
	return anns
}

// appendARowRec frames one ARow. A nil Values slice is encoded as a
// payload-free record (flag 0): the DISTINCT grouper spills those for a
// duplicate with annotations whose first observation already went to disk,
// since the merge discards every later observation's values anyway.
func appendARowRec(dst []byte, row ARow) []byte {
	if row.Values == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendValueRow(dst, row.Values)
	}
	return appendAnnCells(dst, row.Anns)
}

// aRow decodes appendARowRec's record. With keep unset — a record that only
// folds into a kept bucket — it skips the values and leaves empty annotation
// cells nil.
func (r *byteReader) aRow(keep bool) ARow {
	var vals value.Row
	if r.byteVal() != 0 {
		if keep {
			vals = r.row()
		} else {
			r.bytes()
		}
	}
	return ARow{Values: vals, Anns: r.annCells(!keep)}
}

// --- size estimation ------------------------------------------------------------------------

// Budget accounting is approximate: it only needs to track the working set
// closely enough that a small budget forces spilling and the default never
// does on ordinary queries.

func sizeOfValues(vals value.Row) int {
	n := 24 + len(vals)*24
	for _, v := range vals {
		if t := v.Type(); t == value.Text || t == value.Sequence {
			n += len(v.Text())
		}
	}
	return n
}

func sizeOfAnnCells(anns [][]*annotation.Annotation) int {
	n := 24 + len(anns)*24
	for _, cell := range anns {
		n += len(cell) * 8 // shared pointers
	}
	return n
}

func sizeOfARow(row ARow) int {
	return sizeOfValues(row.Values) + sizeOfAnnCells(row.Anns)
}

// --- spillable hash table -------------------------------------------------------------------

// A partition run holds two kinds of record, in the order they were
// appended. Every record starts with its kind byte.
const (
	// recBucket: uvarint seq, the key, then the operator's bucket encoding.
	// A key's first record is always a bucket record, and it carries the
	// group's representative row. A later one carries an observation with
	// annotations, or of a key beyond the flushed markers' cap; the merge
	// folds it into the first and discards its row, if any.
	recBucket byte = iota
	// recObs: the key, then what one observation adds to its group's
	// accumulators (grouperOps.fold). It has no seq — the key's first record
	// fixed its place in first-seen order — and no row or annotation cells.
	recObs
)

// grouperOps parameterizes spillGrouper over its bucket type: grouped
// aggregation buckets (representative row + accumulators) and DISTINCT
// buckets (one output row) share the partition/merge machinery.
type grouperOps[B any] struct {
	// size estimates the resident bytes of a bucket.
	size func(b *B) int
	// encode serializes a bucket into a bucket record.
	encode func(dst []byte, b *B) []byte
	// decode deserializes a bucket record into b. keep is set for a bucket
	// the merge keeps (a key's first record) or emits; a record that only
	// folds into a kept bucket may skip its representative row and leave
	// empty annotation cells nil, and b is then a reused scratch.
	decode func(r *byteReader, b *B, keep bool) error
	// merge folds src (observed later) into dst (observed earlier).
	merge func(dst, src *B) error
	// fold adds one observation record to dst. It is nil for an operator
	// that writes no observation records.
	fold func(dst *B, r *byteReader) error
}

// spillGrouper is a hash table keyed by string that preserves first-seen
// order and bounds its resident size: once the budget is reached the resident
// table freezes — keys already resident keep folding in memory for free, and
// every observation of any other key streams to a hash partition on a temp
// file. A key's first spilled observation is a bucket record carrying the
// representative row; a later one with no annotations is an observation
// record holding only what it adds to the accumulators.
//
// Resident keys are all inserted before the table freezes, so they precede
// every spilled key in first-seen order: finish emits them from memory, drops
// the table, then merges each partition's records back together by key and
// streams the merged groups in first-seen order (every bucket record carries
// the sequence number of the observation that produced it).
type spillGrouper[B any] struct {
	ops    grouperOps[B]
	budget int
	sf     *spillFile

	// m holds the resident buckets. A nil bucket marks a non-resident key
	// whose first bucket record is already on disk, so one probe answers both
	// "is it resident?" and "may this observation leave its row out?". The
	// markers are capped at flushedCap, a small fraction of the budget; a key
	// beyond the cap spills a bucket record with its row every time, which
	// the merge discards: slower, never wrong.
	m          map[string]*B
	order      []*B // resident buckets in first-seen order
	used       int
	marked     int
	flushedCap int
	nextSeq    uint64

	parts      []*heap.RunWriter
	encBuf     []byte
	spillBytes int // bytes of the records appended to parts
}

// spilledRecords and spilledBytes count the records the groupers appended to
// their partitions, and their bytes, added when a grouper starts its merge.
// The spill tests use them to pin how much a spilled observation writes.
var spilledRecords, spilledBytes atomic.Int64

func newSpillGrouper[B any](ops grouperOps[B], budget int, sf *spillFile) *spillGrouper[B] {
	return &spillGrouper[B]{ops: ops, budget: budget, sf: sf, m: map[string]*B{}, flushedCap: budget / 32}
}

// lookup returns the resident bucket for a key held in a reusable byte
// buffer, or nil; flushed reports a non-resident key whose first bucket
// record is on disk. The map index through string(key) does not allocate,
// which is what the per-row consume loops need: one probe per input row,
// allocation only when a group is genuinely new (insert).
func (g *spillGrouper[B]) lookup(key []byte) (b *B, flushed bool) {
	b, ok := g.m[string(key)]
	return b, ok && b == nil
}

// insert adds a fresh bucket for a key lookup just missed. Callers must check
// overflowing() first: once the budget is reached, non-resident keys spill.
func (g *spillGrouper[B]) insert(key string, b *B) {
	g.m[key] = b
	g.order = append(g.order, b)
	g.used += len(key) + g.ops.size(b) + 48
}

// grow records extra resident bytes added to an existing bucket.
func (g *spillGrouper[B]) grow(n int) { g.used += n }

// overflowing reports whether the resident table has reached the budget and
// is frozen: observations of non-resident keys must spill.
func (g *spillGrouper[B]) overflowing() bool { return g.used > g.budget }

// appendDelta spills one observation of a non-resident key as a bucket
// record. The bucket is a caller-owned scratch holding just this
// observation's state; it is encoded immediately and never retained. mark
// asks to remember the key as flushed (capped), so that its later
// observations may leave the representative row out; callers pass it for a
// record that carries the row.
func (g *spillGrouper[B]) appendDelta(key []byte, b *B, mark bool) error {
	if g.parts == nil {
		pgr, err := g.sf.pager()
		if err != nil {
			return err
		}
		g.parts = make([]*heap.RunWriter, spillPartitions)
		for i := range g.parts {
			g.parts[i] = heap.NewRunWriter(pgr)
		}
		spillEvents.Add(1)
	}
	g.encBuf = append(g.encBuf[:0], recBucket)
	g.encBuf = appendUvarint(g.encBuf, g.nextSeq)
	g.nextSeq++
	g.encBuf = appendBytes(g.encBuf, key)
	g.encBuf = g.ops.encode(g.encBuf, b)
	if err := g.appendRec(key, g.encBuf); err != nil {
		return err
	}
	if mark && g.marked < g.flushedCap {
		g.m[string(key)] = nil
		g.marked++
	}
	return nil
}

// beginObs starts an observation record of key in the grouper's scratch
// buffer; the caller appends what the observation adds and hands the buffer
// to appendObs. Only a key lookup reported flushed may be observed this way:
// its bucket record, which the merge folds the observation into, is already
// in the same partition.
func (g *spillGrouper[B]) beginObs(key []byte) []byte {
	return appendBytes(append(g.encBuf[:0], recObs), key)
}

// appendObs appends an observation record begun by beginObs.
func (g *spillGrouper[B]) appendObs(key, rec []byte) error {
	g.encBuf = rec
	return g.appendRec(key, rec)
}

func (g *spillGrouper[B]) appendRec(key, rec []byte) error {
	g.spillBytes += len(rec)
	return g.parts[partitionBytes(key, 0)].Append(rec)
}

// partitionBytes hashes a key into one of the spill partitions, salted by the
// re-partitioning depth so a hot partition's keys redistribute when its merge
// recurses (an unsalted hash would map them all to one sub-partition again).
// FNV-1a, inlined so the per-record hot path allocates nothing.
func partitionBytes(key []byte, depth int) int {
	h := (uint32(2166136261) ^ uint32(byte(depth))) * 16777619
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % spillPartitions)
}

// maxMergeDepth caps the recursive re-partitioning of the merge phase. Each
// level splits a partition's keys 16 ways, so the cap is only reached when
// 16^6 splits still leave more distinct keys than the budget holds — at that
// point the merge proceeds in memory.
const maxMergeDepth = 6

// finish seals the table and returns a pull iterator over the buckets in
// global first-seen order. A returned bucket is valid until the next call: the resident buckets from memory, then — once they
// are all out and the table is dropped, so the merge has the whole budget —
// the spilled groups. Each partition is re-merged in memory (bounded by the
// budget, re-partitioning when it is not), written back as a seq-ordered run,
// and the partition runs are streamed through a k-way merge whose resident
// cost is one page plus one record per partition.
func (g *spillGrouper[B]) finish() func() (*B, bool, error) {
	i := 0
	var merged func() (*B, bool, error)
	var failed error
	return func() (*B, bool, error) {
		if i < len(g.order) {
			b := g.order[i]
			i++
			return b, true, nil
		}
		if failed != nil || g.parts == nil && merged == nil {
			return nil, false, failed
		}
		if merged == nil {
			g.m, g.order = nil, nil
			if merged, failed = g.mergeParts(); failed != nil {
				return nil, false, failed
			}
		}
		return merged()
	}
}

// mergeParts merges every partition and returns the k-way merge over them.
func (g *spillGrouper[B]) mergeParts() (func() (*B, bool, error), error) {
	pgr, err := g.sf.pager()
	if err != nil {
		return nil, err
	}
	parts := g.parts
	g.parts = nil
	spilledBytes.Add(int64(g.spillBytes))
	merged := make([]heap.Run, 0, len(parts))
	for _, w := range parts {
		spilledRecords.Add(int64(w.Records()))
		run, err := w.Finish()
		if err != nil {
			return nil, err
		}
		outs, err := g.mergePartition(pgr, run, 0)
		if err != nil {
			return nil, err
		}
		merged = append(merged, outs...)
	}
	return g.mergeBySeq(pgr, merged)
}

// mergePartition folds one partition's records (several per key) into single
// entries and writes them back as a seq-ordered run — (seq, bucket) records —
// with key sets disjoint from every other run, ready for the final k-way
// merge. A key's records arrive in append order, so its first record is the
// bucket record holding its representative row and the smallest seq, and the
// entries are created in ascending seq.
//
// The resident merge table itself respects the spill budget: each key's
// records fold into its resident entry as they stream past (a single dominant
// key costs one entry no matter how many records it has), but once the
// resident keys exceed the budget, records of every further key are routed —
// framing intact, in order — to sub-partitions under a depth-salted hash and
// merged recursively. A key's first record decides its side, and the hash is
// deterministic, so all records of one key land in exactly one run. At
// maxMergeDepth the merge proceeds in memory regardless of the budget.
func (g *spillGrouper[B]) mergePartition(pgr pager.Pager, run heap.Run, depth int) ([]heap.Run, error) {
	type ent struct {
		seq    uint64
		bucket *B
	}
	byKey := map[string]*B{}
	var order []ent
	resident := 0
	var sub []*heap.RunWriter
	route := func(key, rec []byte) error {
		if sub == nil {
			sub = make([]*heap.RunWriter, spillPartitions)
			for i := range sub {
				sub[i] = heap.NewRunWriter(pgr)
			}
		}
		return sub[partitionBytes(key, depth+1)].Append(rec)
	}
	overBudget := func() bool { return resident > g.budget && depth < maxMergeDepth }
	var scratch B
	var rdr byteReader
	rd := heap.NewRunReader(pgr, run)
	for {
		rec, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rdr = byteReader{buf: rec}
		r := &rdr
		switch r.byteVal() {
		case recBucket:
			seq := r.uvarint()
			key := r.bytes()
			if r.err != nil {
				return nil, r.err
			}
			if e := byKey[string(key)]; e != nil {
				if err := g.ops.decode(r, &scratch, false); err != nil {
					return nil, err
				}
				if err := g.ops.merge(e, &scratch); err != nil {
					return nil, err
				}
				continue
			}
			if overBudget() {
				if err := route(key, rec); err != nil {
					return nil, err
				}
				continue
			}
			b := new(B)
			if err := g.ops.decode(r, b, true); err != nil {
				return nil, err
			}
			byKey[string(key)] = b
			order = append(order, ent{seq: seq, bucket: b})
			resident += len(key) + g.ops.size(b) + 48
		case recObs:
			key := r.bytes()
			if r.err != nil {
				return nil, r.err
			}
			if e := byKey[string(key)]; e != nil && g.ops.fold != nil {
				if err := g.ops.fold(e, r); err != nil {
					return nil, err
				}
				continue
			}
			// A routed key's bucket record went to a sub-partition, and its
			// observations follow it there. Anything else has no bucket
			// record before it.
			if g.ops.fold == nil || !overBudget() {
				return nil, fmt.Errorf("%w: observation of a key with no bucket record", errCorruptSpill)
			}
			if err := route(key, rec); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown record kind", errCorruptSpill)
		}
	}
	w := heap.NewRunWriter(pgr)
	for _, e := range order {
		g.encBuf = appendUvarint(g.encBuf[:0], e.seq)
		g.encBuf = g.ops.encode(g.encBuf, e.bucket)
		if err := w.Append(g.encBuf); err != nil {
			return nil, err
		}
	}
	out, err := w.Finish()
	if err != nil {
		return nil, err
	}
	runs := []heap.Run{out}
	for _, sw := range sub {
		srun, err := sw.Finish()
		if err != nil {
			return nil, err
		}
		if srun.Head == pager.InvalidPageID {
			continue
		}
		sruns, err := g.mergePartition(pgr, srun, depth+1)
		if err != nil {
			return nil, err
		}
		runs = append(runs, sruns...)
	}
	return runs, nil
}

// mergeBySeq streams the seq-ordered partition runs in global seq order. A
// head keeps its record encoded; only the emitted one is decoded, into one
// reused bucket.
func (g *spillGrouper[B]) mergeBySeq(pgr pager.Pager, runs []heap.Run) (func() (*B, bool, error), error) {
	type head struct {
		seq uint64
		rec []byte // the bucket encoding after the seq
		rd  *heap.RunReader
	}
	var heads []*head
	var rdr byteReader
	var emit B
	advance := func(h *head) (bool, error) {
		rec, ok, err := h.rd.Next()
		if err != nil || !ok {
			return false, err
		}
		r := byteReader{buf: rec}
		h.seq = r.uvarint()
		h.rec = r.buf
		return true, r.err
	}
	for _, run := range runs {
		h := &head{rd: heap.NewRunReader(pgr, run)}
		ok, err := advance(h)
		if err != nil {
			return nil, err
		}
		if ok {
			heads = append(heads, h)
		}
	}
	return func() (*B, bool, error) {
		if len(heads) == 0 {
			return nil, false, nil
		}
		best := 0
		for i := 1; i < len(heads); i++ {
			if heads[i].seq < heads[best].seq {
				best = i
			}
		}
		rdr = byteReader{buf: heads[best].rec}
		if err := g.ops.decode(&rdr, &emit, true); err != nil {
			return nil, false, err
		}
		ok, err := advance(heads[best])
		if err != nil {
			return nil, false, err
		}
		if !ok {
			heads = append(heads[:best], heads[best+1:]...)
		}
		return &emit, true, nil
	}, nil
}
