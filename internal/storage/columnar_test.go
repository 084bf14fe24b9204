package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bdbms/internal/catalog"
	"bdbms/internal/value"
)

func columnarSchema(name string) *catalog.Schema {
	return &catalog.Schema{
		Name: name,
		Columns: []catalog.Column{
			{Name: "ID", Type: value.Int, NotNull: true},
			{Name: "N", Type: value.Int},
			{Name: "F", Type: value.Float},
			{Name: "T", Type: value.Text},
			{Name: "B", Type: value.Bool},
		},
		PrimaryKey: "ID",
	}
}

// randColumnarRow draws one row over a mix of encodings: low-cardinality text
// (dictionary + RLE candidates), occasional NULLs everywhere, and a boxed
// BOOL column.
func randColumnarRow(rng *rand.Rand, id int64) value.Row {
	maybeNull := func(v value.Value) value.Value {
		if rng.Intn(7) == 0 {
			return value.NewNull()
		}
		return v
	}
	return value.Row{
		value.NewInt(id),
		maybeNull(value.NewInt(rng.Int63n(1000) - 500)),
		maybeNull(value.NewFloat(float64(rng.Intn(100)) / 4)),
		maybeNull(value.NewText(fmt.Sprintf("tag%02d", rng.Intn(12)))),
		maybeNull(value.NewBool(rng.Intn(2) == 0)),
	}
}

// decodeColumnar reads every row back out of a mirror through the public
// vector surface (DecodeCodes/DecodeValid), reboxing values the way the
// executor does.
func decodeColumnar(t *testing.T, cd *ColData) map[int64]value.Row {
	t.Helper()
	out := make(map[int64]value.Row)
	for _, ch := range cd.Chunks {
		n := ch.Rows()
		for c := range ch.Cols {
			col := &ch.Cols[c]
			codes := col.DecodeCodes(nil)
			valid := col.DecodeValid(nil)
			if valid != nil && len(valid) != n {
				t.Fatalf("col %d: validity length %d, want %d", c, len(valid), n)
			}
			for i := 0; i < n; i++ {
				var v value.Value
				if valid == nil || valid[i] != 0 {
					switch col.Kind {
					case ColInt:
						v = value.NewInt(col.Ints[i])
					case ColFloat:
						v = value.NewFloat(col.Floats[i])
					case ColText:
						s := ""
						if col.Dict != nil {
							s = col.Dict[codes[i]]
						} else {
							s = col.Strs[i]
						}
						if col.Type == value.Sequence {
							v = value.NewSequence(s)
						} else {
							v = value.NewText(s)
						}
					default:
						v = col.Vals[i]
					}
				}
				rowID := ch.RowIDs[i]
				if out[rowID] == nil {
					out[rowID] = make(value.Row, len(ch.Cols))
				}
				out[rowID][c] = v
			}
		}
	}
	return out
}

// TestColumnarMirrorRoundTrip builds the columnar mirror of a randomly
// populated table and asserts every row decodes back identically to the heap
// — across INT/FLOAT/TEXT/BOOL columns, NULLs, dictionary and RLE encodings,
// and multiple chunks.
func TestColumnarMirrorRoundTrip(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nRows := ColChunkRows*2 + 137 // three chunks, last one partial
	want := make(map[int64]value.Row, nRows)
	for i := 0; i < nRows; i++ {
		row := randColumnarRow(rng, int64(i+1))
		id, err := tbl.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = row
	}
	cd := tbl.ColumnarData()
	if cd == nil {
		t.Fatal("ColumnarData returned nil for a small table")
	}
	if cd.WriteSeq != tbl.WriteSeq() {
		t.Fatalf("mirror WriteSeq %d != table WriteSeq %d", cd.WriteSeq, tbl.WriteSeq())
	}
	if len(cd.Chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(cd.Chunks))
	}
	got := decodeColumnar(t, cd)
	if len(got) != nRows {
		t.Fatalf("decoded %d rows, want %d", len(got), nRows)
	}
	for id, wrow := range want {
		grow, ok := got[id]
		if !ok {
			t.Fatalf("row %d missing from mirror", id)
		}
		for c := range wrow {
			w, g := wrow[c], grow[c]
			if w.String() != g.String() || w.Type() != g.Type() {
				t.Fatalf("row %d col %d: mirror has %s (%v), heap has %s (%v)",
					id, c, g, g.Type(), w, w.Type())
			}
		}
	}
	// The dictionary column must actually have dictionary-coded: 12 distinct
	// tags over 1024 rows is far under the 255-entry bound.
	if dict := cd.Chunks[0].Cols[3].Dict; dict == nil {
		t.Error("low-cardinality text column was not dictionary-coded")
	}
}

// TestColumnarMirrorInvalidation pins the write-invalidation handshake: the
// mirror is cached while the heap is untouched, every mutation kind bumps
// WriteSeq and so makes the cached generation stale, and the next generation
// reflects the new heap.
func TestColumnarMirrorInvalidation(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	ids := make([]int64, 0, 50)
	for i := 0; i < 50; i++ {
		id, err := tbl.Insert(randColumnarRow(rng, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	cd1 := tbl.ColumnarData()
	if cd2 := tbl.ColumnarData(); cd2 != cd1 {
		t.Error("mirror rebuilt with no intervening write")
	}
	seq := tbl.WriteSeq()
	if err := tbl.Update(ids[3], randColumnarRow(rng, 9001)); err != nil {
		t.Fatal(err)
	}
	if tbl.WriteSeq() == seq {
		t.Fatal("Update did not bump WriteSeq")
	}
	cd3 := tbl.ColumnarData()
	if cd3 == cd1 {
		t.Fatal("mirror not rebuilt after Update")
	}
	if cd3.WriteSeq != tbl.WriteSeq() {
		t.Fatalf("rebuilt mirror WriteSeq %d != table %d", cd3.WriteSeq, tbl.WriteSeq())
	}
	got := decodeColumnar(t, cd3)
	if got[ids[3]][0].Int() != 9001 {
		t.Errorf("rebuilt mirror missed the update: %s", got[ids[3]][0])
	}
	seq = tbl.WriteSeq()
	if err := tbl.Delete(ids[7]); err != nil {
		t.Fatal(err)
	}
	if tbl.WriteSeq() == seq {
		t.Fatal("Delete did not bump WriteSeq")
	}
	cd4 := tbl.ColumnarData()
	if _, ok := decodeColumnar(t, cd4)[ids[7]]; ok {
		t.Error("rebuilt mirror still holds the deleted row")
	}

	// Snapshot handshake: a snapshot opened now sees the current heap; after
	// one more committed write frame (the executor's auto-commit shape —
	// version entries are only recorded inside frames) it must not.
	snap := e.NewSnapshot()
	defer snap.Close()
	if !snap.SeesCurrentHeap(tbl) {
		t.Error("fresh snapshot does not see the current heap")
	}
	m := e.BeginWrite()
	if _, err := tbl.Insert(randColumnarRow(rng, 777)); err != nil {
		t.Fatal(err)
	}
	e.EndWrite(m)
	if snap.SeesCurrentHeap(tbl) {
		t.Error("snapshot still claims to see the heap after a newer committed write")
	}
}

// newMirrorTable fills a fresh table with n random rows whose ID column and
// RowID agree, and returns it with the rows by RowID.
func newMirrorTable(t *testing.T, rng *rand.Rand, n int) (*Table, map[int64]value.Row) {
	t.Helper()
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[int64]value.Row, n)
	for i := 0; i < n; i++ {
		row := randColumnarRow(rng, tbl.NextRowID())
		id, err := tbl.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		rows[id] = row
	}
	return tbl, rows
}

func sameRow(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if a[c].String() != b[c].String() || a[c].Type() != b[c].Type() {
			return false
		}
	}
	return true
}

// checkMirror asserts the table's current mirror generation is current, well
// formed (no empty or oversized chunk) and equal to Table.Scan in order and
// content, and returns it.
func checkMirror(t *testing.T, tbl *Table) *ColData {
	t.Helper()
	cd := tbl.ColumnarData()
	if cd == nil {
		t.Fatal("ColumnarData returned nil")
	}
	if cd.WriteSeq != tbl.WriteSeq() {
		t.Fatalf("mirror WriteSeq %d != table WriteSeq %d", cd.WriteSeq, tbl.WriteSeq())
	}
	var ids []int64
	for i, ch := range cd.Chunks {
		if ch.Rows() == 0 || ch.Rows() > ColChunkRows {
			t.Fatalf("chunk %d of %d holds %d rows", i, len(cd.Chunks), ch.Rows())
		}
		ids = append(ids, ch.RowIDs...)
	}
	got := decodeColumnar(t, cd)
	i := 0
	err := tbl.Scan(func(rowID int64, row value.Row) bool {
		if i >= len(ids) || ids[i] != rowID {
			t.Fatalf("mirror position %d: heap scan has row %d, mirror has %v", i, rowID, ids[i:min(i+1, len(ids))])
		}
		if !sameRow(got[rowID], row) {
			t.Fatalf("row %d: mirror has %v, heap has %v", rowID, got[rowID], row)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(ids) {
		t.Fatalf("mirror holds %d rows, heap scan %d", len(ids), i)
	}
	return cd
}

// statsDelta returns what the mirror counters gained since before.
func statsDelta(tbl *Table, before ColumnarStats) ColumnarStats {
	now := tbl.ColumnarStats()
	return ColumnarStats{
		FullBuilds:    now.FullBuilds - before.FullBuilds,
		Patches:       now.Patches - before.Patches,
		ChunksRebuilt: now.ChunksRebuilt - before.ChunksRebuilt,
		Dropped:       now.Dropped - before.Dropped,
	}
}

// TestColumnarMirrorRandomDML drives a four-chunk table with random updates,
// deletes, tail inserts (across the chunk boundary) and Apply-style rollbacks
// (a deleted mid-range RowID coming back, an insert going away), and holds the
// mirror to the heap after every single step.
func TestColumnarMirrorRandomDML(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tbl, rows := newMirrorTable(t, rng, 3*ColChunkRows+ColChunkRows-20)
	live := tbl.RowIDs() // sorted, so the seed fixes the run
	checkMirror(t, tbl)
	base := tbl.ColumnarStats()
	steps := 200
	if testing.Short() {
		steps = 60
	}
	for step := 0; step < steps; step++ {
		k := rng.Intn(len(live))
		id := live[k]
		var err error
		switch op := rng.Intn(10); {
		case op < 4: // update in place
			rows[id] = randColumnarRow(rng, rows[id][0].Int())
			err = tbl.Update(id, rows[id])
		case op < 6: // delete
			err = tbl.Delete(id)
			delete(rows, id)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 8: // insert at the tail
			row := randColumnarRow(rng, tbl.NextRowID())
			id, err = tbl.Insert(row)
			rows[id] = row
			live = append(live, id)
		case op < 9: // delete, scan, roll the delete back: the RowID returns mid-range
			if err = tbl.Delete(id); err == nil {
				if rng.Intn(2) == 0 {
					checkMirror(t, tbl)
				}
				err = tbl.Apply(id, rows[id])
			}
		default: // insert, scan, roll the insert back
			var newID int64
			if newID, err = tbl.Insert(randColumnarRow(rng, tbl.NextRowID())); err == nil {
				if rng.Intn(2) == 0 {
					checkMirror(t, tbl)
				}
				err = tbl.Apply(newID, nil)
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkMirror(t, tbl)
	}
	d := statsDelta(tbl, base)
	if d.Patches < uint64(steps) || d.FullBuilds != 0 || d.Dropped != 0 {
		t.Errorf("%d single-row steps cost %+v; want every generation patched", steps, d)
	}
	if d.ChunksRebuilt != d.Patches {
		t.Errorf("single-row patches rebuilt %d chunks in %d patches", d.ChunksRebuilt, d.Patches)
	}
}

// TestColumnarMirrorPatchSharesChunks pins the copy-on-write shape of a
// patch: one written row costs one rebuilt chunk and every other chunk
// pointer is shared with the previous generation, which itself keeps decoding
// the rows it was built from; an emptied chunk disappears, a tail insert past
// ColChunkRows splits the tail, and a rolled-back delete lands in the chunk
// covering its RowID.
func TestColumnarMirrorPatchSharesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tbl, rows := newMirrorTable(t, rng, 4*ColChunkRows)
	gen1 := checkMirror(t, tbl)
	if s := tbl.ColumnarStats(); s != (ColumnarStats{FullBuilds: 1}) {
		t.Fatalf("first scan cost %+v, want one full build", s)
	}
	if len(gen1.Chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(gen1.Chunks))
	}
	gen1Rows := decodeColumnar(t, gen1)

	// One-row UPDATE in chunk 2.
	target := gen1.Chunks[2].RowIDs[17]
	before := tbl.ColumnarStats()
	rows[target] = randColumnarRow(rng, rows[target][0].Int())
	if err := tbl.Update(target, rows[target]); err != nil {
		t.Fatal(err)
	}
	gen2 := checkMirror(t, tbl)
	if d := statsDelta(tbl, before); d != (ColumnarStats{Patches: 1, ChunksRebuilt: 1}) {
		t.Errorf("one write then one scan cost %+v, want 0 full builds, 1 patch, 1 chunk", d)
	}
	if gen2 == gen1 || len(gen2.Chunks) != 4 {
		t.Fatalf("generation after the update: same=%v, %d chunks", gen2 == gen1, len(gen2.Chunks))
	}
	for i := range gen2.Chunks {
		if shared := gen2.Chunks[i] == gen1.Chunks[i]; shared == (i == 2) {
			t.Errorf("chunk %d shared with the previous generation = %v", i, shared)
		}
	}

	// Empty chunk 1 entirely: it must disappear, its neighbours stay shared.
	before = tbl.ColumnarStats()
	for _, id := range gen2.Chunks[1].RowIDs {
		if err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(rows, id)
	}
	gen3 := checkMirror(t, tbl)
	if d := statsDelta(tbl, before); d != (ColumnarStats{Patches: 1, ChunksRebuilt: 1}) {
		t.Errorf("emptying one chunk cost %+v, want 1 patch of 1 chunk", d)
	}
	if len(gen3.Chunks) != 3 || gen3.Chunks[0] != gen2.Chunks[0] || gen3.Chunks[1] != gen2.Chunks[2] || gen3.Chunks[2] != gen2.Chunks[3] {
		t.Errorf("after emptying chunk 1: %d chunks, neighbours not shared", len(gen3.Chunks))
	}

	// A rolled-back delete of one of those rows re-inserts a RowID between
	// chunk 0 and the old chunk 2: it must join chunk 0's range, overfilling
	// and so splitting it, never the tail.
	back := gen2.Chunks[1].RowIDs[500]
	if err := tbl.Apply(back, gen1Rows[back]); err != nil {
		t.Fatal(err)
	}
	gen4 := checkMirror(t, tbl)
	if len(gen4.Chunks) != 4 || gen4.Chunks[1].Rows() != 1 || gen4.Chunks[1].RowIDs[0] != back {
		t.Errorf("re-inserted row %d: %d chunks, chunk 1 holds %v", back, len(gen4.Chunks), gen4.Chunks[1].RowIDs)
	}
	if last := len(gen4.Chunks) - 1; gen4.Chunks[last] != gen3.Chunks[len(gen3.Chunks)-1] {
		t.Error("a mid-range re-insert rebuilt the tail chunk")
	}

	// Tail inserts: the last chunk is full, so the first insert opens a new
	// chunk and the rest extend it.
	before = tbl.ColumnarStats()
	for i := 0; i < 3; i++ {
		if _, err := tbl.Insert(randColumnarRow(rng, tbl.NextRowID())); err != nil {
			t.Fatal(err)
		}
	}
	gen5 := checkMirror(t, tbl)
	if d := statsDelta(tbl, before); d != (ColumnarStats{Patches: 1, ChunksRebuilt: 1}) {
		t.Errorf("three tail inserts cost %+v, want 1 patch of 1 chunk", d)
	}
	if n := len(gen5.Chunks); n != 5 || gen5.Chunks[n-1].Rows() != 3 || gen5.Chunks[n-2].Rows() != ColChunkRows {
		t.Errorf("tail after 3 inserts past a full chunk: %d chunks", n)
	}

	// Immutability: the first generation still decodes exactly its own rows.
	again := decodeColumnar(t, gen1)
	if len(again) != len(gen1Rows) {
		t.Fatalf("generation 1 now decodes %d rows, was %d", len(again), len(gen1Rows))
	}
	for id, row := range gen1Rows {
		if !sameRow(again[id], row) {
			t.Fatalf("generation 1 row %d changed under later writes: %v, was %v", id, again[id], row)
		}
	}
}

// TestColumnarMirrorFullRebuildRules trips each rule that abandons the patch
// for a full build: writes in more than half the chunks, deletes leaving the
// chunks under half full, a dirty list past colDirtyMax (which also frees the
// mirror, after which writes track nothing), and a table past
// colCacheMaxRows.
func TestColumnarMirrorFullRebuildRules(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tbl, rows := newMirrorTable(t, rng, 4*ColChunkRows)
	cd := checkMirror(t, tbl)
	update := func(id int64) {
		t.Helper()
		rows[id] = randColumnarRow(rng, rows[id][0].Int())
		if err := tbl.Update(id, rows[id]); err != nil {
			t.Fatal(err)
		}
	}

	// Two of four chunks dirty: still a patch. Three: a full build.
	before := tbl.ColumnarStats()
	update(cd.Chunks[0].RowIDs[0])
	update(cd.Chunks[3].RowIDs[0])
	cd = checkMirror(t, tbl)
	if d := statsDelta(tbl, before); d != (ColumnarStats{Patches: 1, ChunksRebuilt: 2}) {
		t.Errorf("writes in 2 of 4 chunks cost %+v, want 1 patch of 2 chunks", d)
	}
	before = tbl.ColumnarStats()
	for _, c := range []int{0, 1, 3} {
		update(cd.Chunks[c].RowIDs[1])
	}
	cd = checkMirror(t, tbl)
	if d := statsDelta(tbl, before); d != (ColumnarStats{FullBuilds: 1}) {
		t.Errorf("writes in 3 of 4 chunks cost %+v, want 1 full build", d)
	}

	// The dirty list's bound: colDirtyMax writes are tracked, one more frees
	// the mirror, and from then on nothing is tracked.
	before = tbl.ColumnarStats()
	ids := cd.Chunks[1].RowIDs
	for i := 0; i < colDirtyMax; i++ {
		update(ids[i%len(ids)])
	}
	if tbl.colCache.Load() == nil || len(tbl.colDirty) != colDirtyMax {
		t.Fatalf("after %d writes: mirror kept = %v, %d tracked", colDirtyMax, tbl.colCache.Load() != nil, len(tbl.colDirty))
	}
	update(ids[0])
	update(ids[1])
	if tbl.colCache.Load() != nil || tbl.colDirty != nil {
		t.Fatalf("past the bound: mirror kept = %v, %d tracked", tbl.colCache.Load() != nil, len(tbl.colDirty))
	}
	cd = checkMirror(t, tbl)
	if d := statsDelta(tbl, before); d != (ColumnarStats{FullBuilds: 1, Dropped: 1}) {
		t.Errorf("a write stream past the bound cost %+v, want 1 drop and 1 full build", d)
	}

	// Deletes: thin every chunk to a third, scanning after each chunk so the
	// spread rule stays out of it. The fourth round leaves the table under
	// half of what four chunks hold.
	before = tbl.ColumnarStats()
	for c := 0; c < 4; c++ {
		for i, id := range cd.Chunks[c].RowIDs {
			if i%3 != 0 {
				if err := tbl.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(rows, id)
			}
		}
		checkMirror(t, tbl)
	}
	d := statsDelta(tbl, before)
	if d.Patches != 3 || d.FullBuilds != 1 || d.Dropped != 0 {
		t.Errorf("thinning four chunks cost %+v, want 3 patches then the full build that re-packs", d)
	}
	if n := len(checkMirror(t, tbl).Chunks); n != 2 {
		t.Errorf("re-packed mirror has %d chunks, want 2", n)
	}

	// colCacheMaxRows: a table past it loses its mirror and gets none.
	defer func(n int) { colCacheMaxRows = n }(colCacheMaxRows)
	colCacheMaxRows = tbl.RowCount()
	before = tbl.ColumnarStats()
	if _, err := tbl.Insert(randColumnarRow(rng, tbl.NextRowID())); err != nil {
		t.Fatal(err)
	}
	if tbl.ColumnarData() != nil || tbl.ColumnarData() != nil {
		t.Error("a table past colCacheMaxRows still has a mirror")
	}
	if d := statsDelta(tbl, before); d != (ColumnarStats{Dropped: 1}) {
		t.Errorf("growing past colCacheMaxRows cost %+v, want 1 drop", d)
	}
	update(ids[0])
	if tbl.colDirty != nil {
		t.Error("a table without a mirror tracks dirty rows")
	}
}

// TestColumnarMirrorConcurrentReadersWriter runs two readers that take a
// snapshot, fetch the mirror and apply the executor's handshake beside a
// writer committing (and sometimes rolling back) frames that move value
// between rows, insert and delete. Whenever the handshake holds, the mirror
// must show a committed state: the column total is the constant the writer
// preserves. Run under -race this is the proof that writers appending to the
// dirty list, the patcher consuming it and readers holding old generations
// do not race.
func TestColumnarMirrorConcurrentReadersWriter(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	const nRows, each = 3*ColChunkRows + 100, 1000
	row := func(id, n int64) value.Row {
		return value.Row{value.NewInt(id), value.NewInt(n), value.NewFloat(0), value.NewText("t"), value.NewBool(true)}
	}
	first := tbl.NextRowID()
	for i := 0; i < nRows; i++ {
		if _, err := tbl.Insert(row(tbl.NextRowID(), each)); err != nil {
			t.Fatal(err)
		}
	}
	total := func(cd *ColData) (sum int64) {
		for _, ch := range cd.Chunks {
			for _, n := range ch.Cols[1].Ints {
				sum += n
			}
		}
		return sum
	}
	// One handshake attempt; ok is false when the scan would have fallen back.
	attempt := func() (sum int64, ok bool) {
		snap := e.NewSnapshot()
		defer snap.Close()
		cd := tbl.ColumnarData()
		if cd == nil || !snap.SeesCurrentHeap(tbl) || cd.WriteSeq != tbl.WriteSeq() {
			return 0, false
		}
		return total(cd), true
	}

	frames := 400
	if testing.Short() {
		frames = 100
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if sum, ok := attempt(); ok && sum != nRows*each {
					t.Errorf("mirror under a passing handshake totals %d, want %d", sum, nRows*each)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(17))
	var extra []int64 // rows the writer inserted (holding 0) and may delete
	for f := 0; f < frames; f++ {
		m := e.BeginWrite()
		a, b, k := first+rng.Int63n(nRows), first+rng.Int63n(nRows), rng.Int63n(50)
		ra, err1 := tbl.Get(a)
		rb, err2 := tbl.Get(b)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			if err := tbl.Update(a, row(a, ra[1].Int()-k)); err != nil {
				t.Fatal(err)
			}
			if f%7 == 3 {
				// Abort: undo the half-done transfer.
				err = tbl.Apply(a, ra)
			} else {
				err = tbl.Update(b, row(b, rb[1].Int()+k))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		switch {
		case f%5 == 0:
			id, err := tbl.Insert(row(tbl.NextRowID(), 0))
			if err != nil {
				t.Fatal(err)
			}
			extra = append(extra, id)
		case f%5 == 2 && len(extra) > 0:
			if err := tbl.Delete(extra[0]); err != nil {
				t.Fatal(err)
			}
			extra = extra[1:]
		}
		e.EndWrite(m)
	}
	close(done)
	wg.Wait()
	if sum, ok := attempt(); !ok || sum != nRows*each {
		t.Errorf("quiescent handshake: ok=%v total %d, want %d", ok, sum, nRows*each)
	}
	if s := tbl.ColumnarStats(); s.Patches == 0 {
		t.Errorf("no generation was patched beside the writer: %+v", s)
	}
}
