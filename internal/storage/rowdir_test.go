package storage

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bdbms/internal/catalog"
	"bdbms/internal/heap"
	"bdbms/internal/pager"
	"bdbms/internal/value"
)

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkDirAgainstModel compares every observable of d with the model.
func checkDirAgainstModel(t *testing.T, d *rowDir, model map[int64]heap.RID, probes []int64) {
	t.Helper()
	if d.len() != len(model) {
		t.Fatalf("len = %d, model holds %d", d.len(), len(model))
	}
	for _, id := range probes {
		got, ok := d.get(id)
		want, wantOK := model[id]
		if ok != wantOK || got != want {
			t.Fatalf("get(%d) = %v, %v; model %v, %v", id, got, ok, want, wantOK)
		}
	}
	want := make([]int64, 0, len(model))
	for id := range model {
		want = append(want, id)
	}
	slices.Sort(want)
	var walked []int64
	d.ascend(func(id int64, rid heap.RID) bool {
		if model[id] != rid {
			t.Fatalf("ascend: row %d at %v, model %v", id, rid, model[id])
		}
		walked = append(walked, id)
		return true
	})
	if !slices.Equal(walked, want) {
		t.Fatalf("ascend walked %v, want %v", walked, want)
	}
	if ids := d.appendIDs(nil); !slices.Equal(ids, want) {
		t.Fatalf("appendIDs = %v, want %v", ids, want)
	}
}

// TestRowDirectoryMatchesModel drives the directory and a map with the same
// random sets and deletes over RowIDs that straddle pages, page tables and
// the top of the range, and compares gets, the count and the ascending walk.
func TestRowDirectoryMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// RowIDs near the edges the layout cuts at.
	bases := []int64{0, dirPageSlots - 3, 3 * dirPageSlots, dirTableLen*dirPageSlots - 5, maxRowID - 40}
	pick := func() int64 {
		b := bases[rng.Intn(len(bases))]
		return b + rng.Int63n(min(3*dirPageSlots/2, maxRowID-b))
	}
	var probes []int64
	for _, b := range bases {
		for i := int64(-2); i < 50; i++ {
			if id := b + i; id >= 0 && id < maxRowID {
				probes = append(probes, id)
			}
		}
	}
	probes = append(probes, -1, maxRowID, maxRowID+1, 1<<62)

	var d rowDir
	model := make(map[int64]heap.RID)
	for step := 0; step < 20000; step++ {
		id := pick()
		switch op := rng.Intn(10); {
		case op < 6:
			rid := heap.RID{Page: pager.PageID(rng.Int63n(1 << 47)), Slot: uint16(rng.Intn(1 << 16))}
			d.set(id, rid)
			model[id] = rid
		default:
			d.del(id)
			delete(model, id)
		}
		if step%1000 == 0 {
			checkDirAgainstModel(t, &d, model, probes)
		}
	}
	checkDirAgainstModel(t, &d, model, probes)

	// Fill one page completely, leave holes in its neighbours, then delete
	// the whole page: it is freed and the walk skips it.
	const pg = 5
	for s := int64(0); s < dirPageSlots; s++ {
		id := pg*dirPageSlots + s
		d.set(id, heap.RID{Page: pager.PageID(s), Slot: uint16(s)})
		model[id] = heap.RID{Page: pager.PageID(s), Slot: uint16(s)}
	}
	for _, id := range []int64{(pg-1)*dirPageSlots + 7, (pg+1)*dirPageSlots + 9} {
		d.set(id, heap.RID{Page: 1})
		model[id] = heap.RID{Page: 1}
	}
	checkDirAgainstModel(t, &d, model, probes)
	if p := d.tables[0][pg]; p == nil || p.live != dirPageSlots || len(p.slots) != dirPageSlots {
		t.Fatalf("full page: %+v", p)
	}
	for s := int64(dirPageSlots - 1); s >= 0; s-- {
		d.del(pg*dirPageSlots + s)
		delete(model, pg*dirPageSlots+s)
	}
	if d.tables[0][pg] != nil {
		t.Fatal("a page whose rows were all deleted is still allocated")
	}
	checkDirAgainstModel(t, &d, model, probes)

	// Deleting what is absent, or out of range, changes nothing.
	n := d.len()
	for _, id := range []int64{pg * dirPageSlots, -1, maxRowID, 1 << 62} {
		d.del(id)
	}
	if d.len() != n {
		t.Fatalf("deleting absent rows moved the count %d → %d", n, d.len())
	}
	// The walk stops when told to.
	calls := 0
	d.ascend(func(int64, heap.RID) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("ascend made %d calls after fn returned false at the third", calls)
	}
}

// TestRowDirectoryBytesPerRow pins what a row costs the directory: at most
// 12 bytes of live heap per row for 450 000 ascending RowIDs, the shape a
// table that only inserts takes (a Go map held about 40).
func TestRowDirectoryBytesPerRow(t *testing.T) {
	const n = 450_000
	base := liveHeap()
	d := new(rowDir)
	for id := int64(1); id <= n; id++ {
		d.set(id, heap.RID{Page: pager.PageID(id / 40), Slot: uint16(id % 40)})
	}
	perRow := float64(liveHeap()-base) / n
	runtime.KeepAlive(d)
	t.Logf("%.2f B/row", perRow)
	if perRow > 12 {
		t.Errorf("%.2f B of live heap per row, want <= 12", perRow)
	}
}

// TestApplyOfFarRowIDIsBounded applies rows whose RowIDs no insert would
// assign, as a corrupt log record could carry: the directory refuses those
// beyond its range, and none costs heap in proportion to its value.
func TestApplyOfFarRowIDIsBounded(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(&catalog.Schema{
		Name:    "T",
		Columns: []catalog.Column{{Name: "V", Type: value.Int}},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.NewInt(1)}
	for _, tc := range []struct {
		rowID  int64
		refuse bool
	}{
		{1 << 62, true},
		{-1, true},
		{-(1 << 62), true},
		{maxRowID, true},
		{maxRowID - 1, false},
		{1 << 33, false},
	} {
		before := liveHeap()
		err := tbl.Apply(tc.rowID, row)
		grew := int64(liveHeap()) - int64(before)
		if tc.refuse != (err != nil) || (err != nil && !errors.Is(err, errRowIDRange)) {
			t.Errorf("Apply(%d): err %v, want refused = %v", tc.rowID, err, tc.refuse)
		}
		if grew > 1<<20 {
			t.Errorf("Apply(%d) grew the live heap by %d bytes", tc.rowID, grew)
		}
		if got, err := tbl.Get(tc.rowID); tc.refuse == (err == nil) {
			t.Errorf("Get(%d) after Apply = %v, %v", tc.rowID, got, err)
		}
	}
	if n := tbl.RowCount(); n != 2 {
		t.Errorf("RowCount = %d, want the 2 rows in range", n)
	}
	if ids := tbl.RowIDs(); !slices.Equal(ids, []int64{1 << 33, maxRowID - 1}) {
		t.Errorf("RowIDs = %v", ids)
	}
	if problems := tbl.CheckIntegrity(); len(problems) != 0 {
		t.Errorf("CheckIntegrity: %q", problems)
	}
}

// TestIndexLookupAllocatesOnlyItsResult: a point probe of a unique index
// allocates the one-element result slice and nothing else — no sort
// machinery, no key buffer.
func TestIndexLookupAllocatesOnlyItsResult(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(applySchema("P"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 500; i++ {
		if _, err := tbl.Insert(applyRow(i, "t", i)); err != nil {
			t.Fatal(err)
		}
	}
	key := value.NewInt(250)
	var ids []int64
	allocs := testing.AllocsPerRun(200, func() {
		ids, err = tbl.IndexLookup("id", key)
	})
	if err != nil || len(ids) != 1 {
		t.Fatalf("IndexLookup = %v, %v", ids, err)
	}
	if allocs != 1 {
		t.Errorf("IndexLookup made %.1f allocations, want 1 (its result)", allocs)
	}
}
