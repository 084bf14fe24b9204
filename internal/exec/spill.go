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
	"sort"
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

// byteReader decodes the codec above; the first error sticks.
type byteReader struct {
	buf []byte
	err error
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("exec: corrupt spill record")
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

func appendValueRow(dst []byte, row value.Row) []byte {
	return appendBytes(dst, value.EncodeRow(row))
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
	if r.err != nil {
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

func (r *byteReader) annCells() [][]*annotation.Annotation {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	anns := make([][]*annotation.Annotation, n)
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
			anns[c] = append(anns[c], a)
		}
	}
	return anns
}

// appendARowRec frames one ARow. A nil Values slice is encoded as a
// payload-free record (flag 0): the DISTINCT grouper spills those for keys
// whose first observation already went to disk, since the merge discards
// every later observation's values anyway.
func appendARowRec(dst []byte, row ARow) []byte {
	if row.Values == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendValueRow(dst, row.Values)
	}
	return appendAnnCells(dst, row.Anns)
}

func (r *byteReader) aRow() ARow {
	var vals value.Row
	if r.byteVal() != 0 {
		vals = r.row()
	}
	return ARow{Values: vals, Anns: r.annCells()}
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

// grouperOps parameterizes spillGrouper over its bucket type: grouped
// aggregation buckets (representative row + accumulators) and DISTINCT
// buckets (one output row) share the partition/flush/merge machinery.
type grouperOps[B any] struct {
	// size estimates the resident bytes of a bucket.
	size func(b *B) int
	// encode serializes a bucket into a spill record.
	encode func(dst []byte, b *B) []byte
	// decode deserializes a spill record.
	decode func(r *byteReader) (*B, error)
	// decodeInto, when non-nil, deserializes a spill record into a reusable
	// scratch bucket. The merge phase uses it for records that fold into an
	// already-resident entry — by far the common case for a spilling
	// aggregation, where it saves two allocations per record.
	decodeInto func(r *byteReader, b *B) error
	// merge folds src (observed later) into dst (observed earlier).
	merge func(dst, src *B) error
}

type groupEntry[B any] struct {
	seq    uint64
	bucket *B
}

// spillGrouper is a hash table keyed by string that preserves first-seen
// order and bounds its resident size: once the budget is reached the resident
// table freezes — keys already resident keep folding in memory for free, and
// every observation of any other key streams to a hash partition on a temp
// file as a small delta record (appendDelta). finish flushes the resident
// entries once, merges each partition's records back together by key, and
// streams the entries in global first-seen order (every record carries the
// sequence number of the observation that produced it; the merge keeps the
// earliest).
type spillGrouper[B any] struct {
	ops    grouperOps[B]
	budget int
	sf     *spillFile

	m       map[string]*groupEntry[B]
	order   []string
	used    int
	nextSeq uint64

	parts   []*heap.RunWriter
	spilled bool
	encBuf  []byte

	// flushed remembers keys that already have a delta record on disk, capped
	// at flushedCap entries so the side table stays a small fraction of the
	// budget. A key found here already has a spilled record carrying its
	// representative payload (the merge keeps the earliest observation's
	// payload and discards every later one), so callers may strip the payload
	// from the key's subsequent deltas. Keys beyond the cap simply spill
	// their payload every time, which the merge discards: slower, never
	// wrong.
	flushed    map[string]struct{}
	flushedCap int
}

func newSpillGrouper[B any](ops grouperOps[B], budget int, sf *spillFile) *spillGrouper[B] {
	return &spillGrouper[B]{ops: ops, budget: budget, sf: sf, m: map[string]*groupEntry[B]{}, flushedCap: budget / 32}
}

// flushedBefore reports whether an earlier delta already spilled this key
// (and with it the key's representative payload). Indexing the map through
// string(key) does not allocate, so the consume loops can probe with their
// reusable key buffers.
func (g *spillGrouper[B]) flushedBefore(key []byte) bool {
	_, ok := g.flushed[string(key)]
	return ok
}

// lookup returns the resident bucket for a key held in a reusable byte
// buffer, or nil. The map index through string(key) does not allocate on a
// hit, which is what the per-row consume loops need: one lookup per input
// row, allocation only when a group is genuinely new (insert).
func (g *spillGrouper[B]) lookup(key []byte) *B {
	if e, ok := g.m[string(key)]; ok {
		return e.bucket
	}
	return nil
}

// insert adds a fresh bucket for a key lookup just missed, at the next
// sequence number. Callers must check overflowing() first: once the budget is
// reached, non-resident keys go through appendDelta instead.
func (g *spillGrouper[B]) insert(key string, b *B) {
	g.m[key] = &groupEntry[B]{seq: g.nextSeq, bucket: b}
	g.nextSeq++
	g.order = append(g.order, key)
	g.used += len(key) + g.ops.size(b) + 48
}

// grow records extra resident bytes added to an existing bucket.
func (g *spillGrouper[B]) grow(n int) { g.used += n }

// overflowing reports whether the resident table has reached the budget and
// is frozen: observations of non-resident keys must spill as delta records.
func (g *spillGrouper[B]) overflowing() bool { return g.used > g.budget }

// appendDelta spills one observation of a non-resident key to the key's hash
// partition. The bucket is a caller-owned scratch holding just this
// observation's state; it is encoded immediately and never retained, so the
// per-observation cost is one varint-framed record append — no map insert, no
// bucket allocation, no later re-flush. The key is remembered in the flushed
// set (capped) so the caller can strip the representative payload from the
// key's subsequent deltas.
func (g *spillGrouper[B]) appendDelta(key []byte, b *B) error {
	pgr, err := g.sf.pager()
	if err != nil {
		return err
	}
	if g.parts == nil {
		g.parts = make([]*heap.RunWriter, spillPartitions)
		for i := range g.parts {
			g.parts[i] = heap.NewRunWriter(pgr)
		}
		g.spilled = true
		spillEvents.Add(1)
	}
	g.encBuf = g.encBuf[:0]
	g.encBuf = appendUvarint(g.encBuf, g.nextSeq)
	g.nextSeq++
	g.encBuf = appendBytes(g.encBuf, key)
	g.encBuf = g.ops.encode(g.encBuf, b)
	if err := g.parts[partitionBytes(key, 0)].Append(g.encBuf); err != nil {
		return err
	}
	if !g.flushedBefore(key) && g.flushedCap > 0 {
		if g.flushed == nil {
			g.flushed = make(map[string]struct{}, 64)
		}
		if len(g.flushed) < g.flushedCap {
			g.flushed[string(key)] = struct{}{}
		}
	}
	return nil
}

func partitionOf(key string) int { return partitionAt(key, 0) }

// partitionAt hashes a key into one of the spill partitions, salted by the
// re-partitioning depth so a hot partition's keys redistribute when its merge
// recurses (an unsalted hash would map them all to one sub-partition again).
// FNV-1a, inlined so the per-delta hot path allocates nothing.
func partitionAt(key string, depth int) int {
	h := (uint32(2166136261) ^ uint32(byte(depth))) * 16777619
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % spillPartitions)
}

// partitionBytes is partitionAt for a key held in a reusable byte buffer;
// the two must agree for every key.
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
// point the merge proceeds in memory (the pre-existing behaviour for every
// partition).
const maxMergeDepth = 6

// spill writes every resident entry to its hash partition. It runs once, at
// finish time, when delta records were appended: the resident entries must
// join the same merge so each key ends up with a single output bucket. (A
// resident key never has delta records — residency means every observation
// folded in memory — but its record still lands in the partition its hash
// selects, alongside other keys' deltas.)
func (g *spillGrouper[B]) spill() error {
	pgr, err := g.sf.pager()
	if err != nil {
		return err
	}
	if g.parts == nil {
		g.parts = make([]*heap.RunWriter, spillPartitions)
		for i := range g.parts {
			g.parts[i] = heap.NewRunWriter(pgr)
		}
	}
	g.spilled = true
	spillEvents.Add(1)
	for _, key := range g.order {
		e := g.m[key]
		g.encBuf = g.encBuf[:0]
		g.encBuf = appendUvarint(g.encBuf, e.seq)
		g.encBuf = appendString(g.encBuf, key)
		g.encBuf = g.ops.encode(g.encBuf, e.bucket)
		if err := g.parts[partitionOf(key)].Append(g.encBuf); err != nil {
			return err
		}
	}
	clear(g.m)
	g.order = g.order[:0]
	g.used = 0
	return nil
}

// finish seals the table and returns a pull iterator over the entries in
// global first-seen order. When nothing was spilled this iterates the
// resident table; otherwise each partition is re-merged in memory (bounded
// by groups-per-partition, 1/16th of the distinct keys on average), written
// back as a seq-ordered run, and the partition runs are streamed through a
// k-way merge whose resident cost is one page plus one decoded bucket per
// partition.
func (g *spillGrouper[B]) finish() (func() (*B, bool, error), error) {
	if !g.spilled {
		i := 0
		return func() (*B, bool, error) {
			if i >= len(g.order) {
				return nil, false, nil
			}
			b := g.m[g.order[i]].bucket
			i++
			return b, true, nil
		}, nil
	}
	if err := g.spill(); err != nil { // flush the residual table
		return nil, err
	}
	pgr, err := g.sf.pager()
	if err != nil {
		return nil, err
	}
	merged := make([]heap.Run, 0, len(g.parts))
	for _, w := range g.parts {
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
	g.parts = nil
	return g.mergeBySeq(pgr, merged)
}

// mergePartition folds one partition's records (several per key when flushes
// interleaved) into single entries and writes them back as seq-ordered runs
// whose key sets are disjoint, ready for the final k-way merge.
//
// The resident merge table itself respects the spill budget: each key's
// records fold into its resident entry as they stream past (a single dominant
// key costs one entry no matter how many flushes it survived), but once the
// resident keys exceed the budget, records of every further key are routed —
// framing intact, in order — to sub-partitions under a depth-salted hash and
// merged recursively. A key's first record decides its side, and the hash is
// deterministic, so all records of one key land in exactly one run. At
// maxMergeDepth the merge proceeds in memory regardless of the budget.
func (g *spillGrouper[B]) mergePartition(pgr pager.Pager, run heap.Run, depth int) ([]heap.Run, error) {
	type ent struct {
		seq    uint64
		key    string
		bucket *B
	}
	byKey := map[string]*ent{}
	var order []*ent
	resident := 0
	var sub []*heap.RunWriter
	var scratch *B
	rd := heap.NewRunReader(pgr, run)
	var rdr byteReader
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
		seq := r.uvarint()
		keyBytes := r.bytes()
		if e, ok := byKey[string(keyBytes)]; ok {
			// Records of one key arrive in append order, i.e. ascending seq:
			// the resident entry is the earlier observation.
			var b *B
			if g.ops.decodeInto != nil {
				if scratch == nil {
					scratch = new(B)
				}
				err = g.ops.decodeInto(r, scratch)
				b = scratch
			} else {
				b, err = g.ops.decode(r)
			}
			if err == nil && r.err != nil {
				err = r.err
			}
			if err != nil {
				return nil, err
			}
			if err := g.ops.merge(e.bucket, b); err != nil {
				return nil, err
			}
			continue
		}
		if resident > g.budget && depth < maxMergeDepth {
			// Over budget: defer this key (and all its later records, which
			// hash identically) to a sub-partition instead of growing the
			// resident table. The record is re-appended verbatim — seq, key
			// and bucket framing included.
			if sub == nil {
				sub = make([]*heap.RunWriter, spillPartitions)
				for i := range sub {
					sub[i] = heap.NewRunWriter(pgr)
				}
			}
			if err := sub[partitionBytes(keyBytes, depth+1)].Append(rec); err != nil {
				return nil, err
			}
			continue
		}
		b, err := g.ops.decode(r)
		if err == nil && r.err != nil {
			err = r.err
		}
		if err != nil {
			return nil, err
		}
		key := string(keyBytes)
		e := &ent{seq: seq, key: key, bucket: b}
		byKey[key] = e
		order = append(order, e)
		resident += len(key) + g.ops.size(b) + 48
	}
	sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
	w := heap.NewRunWriter(pgr)
	for _, e := range order {
		g.encBuf = g.encBuf[:0]
		g.encBuf = appendUvarint(g.encBuf, e.seq)
		g.encBuf = appendString(g.encBuf, e.key)
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

// mergeBySeq streams the seq-ordered partition runs in global seq order.
func (g *spillGrouper[B]) mergeBySeq(pgr pager.Pager, runs []heap.Run) (func() (*B, bool, error), error) {
	type head struct {
		seq    uint64
		bucket *B
		rd     *heap.RunReader
	}
	var heads []*head
	advance := func(h *head) (bool, error) {
		rec, ok, err := h.rd.Next()
		if err != nil || !ok {
			return false, err
		}
		r := &byteReader{buf: rec}
		h.seq = r.uvarint()
		_ = r.bytes() // key, not needed after partition merge
		b, err := g.ops.decode(r)
		if err == nil && r.err != nil {
			err = r.err
		}
		if err != nil {
			return false, err
		}
		h.bucket = b
		return true, nil
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
		b := heads[best].bucket
		ok, err := advance(heads[best])
		if err != nil {
			return nil, false, err
		}
		if !ok {
			heads = append(heads[:best], heads[best+1:]...)
		}
		return b, true, nil
	}, nil
}
