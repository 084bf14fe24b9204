package dependency

import (
	"fmt"
	"math/rand"
	"testing"

	"bdbms/internal/annotation"
)

// testMarker builds a distinguishable synthetic annotation for a cell.
type testMarker struct{}

func (testMarker) Mark(rowID int64, col int) *annotation.Annotation {
	return &annotation.Annotation{AnnTable: "Outdated", Body: fmt.Sprintf("row %d col %d", rowID, col)}
}

var testMark testMarker

// sameMarks reports whether two Marks results describe the same cells: both
// nil, or equally long with a mark (of the same body) in exactly the same
// slots.
func sameMarks(a, b []*annotation.Annotation) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || (a[i] != nil && a[i].Body != b[i].Body) {
			return false
		}
	}
	return true
}

// TestBitmapMarksCacheMatchesFreshBuild interleaves Set, Clear and reads of
// the cached marks, and after every step compares each row's cached marks
// with those of a new bitmap given the same bits.
func TestBitmapMarksCacheMatchesFreshBuild(t *testing.T) {
	const rows, cols = 12, 4
	bm := NewBitmap("T", cols)
	r := rand.New(rand.NewSource(3))
	for step := 0; step < 2000; step++ {
		rowID, col := 1+r.Int63n(rows), r.Intn(cols)
		switch r.Intn(3) {
		case 0:
			bm.Set(rowID, col)
		case 1:
			bm.Clear(rowID, col)
		default:
			bm.Marks(rowID, testMark)
		}
		fresh := NewBitmap("T", cols)
		for _, c := range bm.OutdatedCells() {
			fresh.Set(c.RowID, c.Col)
		}
		ids := make([]int64, rows+1)
		batch := make([][]*annotation.Annotation, rows+1)
		for i := range ids {
			ids[i] = int64(i)
		}
		bm.MarksOf(batch, ids, testMark)
		for id := int64(0); id <= rows; id++ {
			got, want := bm.Marks(id, testMark), fresh.Marks(id, testMark)
			if !sameMarks(got, want) {
				t.Fatalf("step %d: row %d: cached marks %v, fresh build %v", step, id, got, want)
			}
			if !sameMarks(batch[id], want) {
				t.Fatalf("step %d: row %d: MarksOf %v, fresh build %v", step, id, batch[id], want)
			}
			if (got != nil) != bm.RowOutdated(id) {
				t.Fatalf("step %d: row %d: marks %v but RowOutdated %v", step, id, got, bm.RowOutdated(id))
			}
		}
	}
}

// TestBitmapMarksReadTwiceAllocatesNothing: the second read of a marked row
// returns the first read's annotations and allocates nothing, until the row
// changes.
func TestBitmapMarksReadTwiceAllocatesNothing(t *testing.T) {
	bm := NewBitmap("T", 3)
	bm.Set(7, 1)
	bm.Set(7, 2)
	first := bm.Marks(7, testMark)
	if first[0] != nil || first[1] == nil || first[2] == nil {
		t.Fatalf("marks of row 7 = %v, want slots 1 and 2", first)
	}
	var again []*annotation.Annotation
	if n := testing.AllocsPerRun(100, func() { again = bm.Marks(7, testMark) }); n != 0 {
		t.Fatalf("second read of a marked row allocated %v times", n)
	}
	if &again[0] != &first[0] {
		t.Fatal("second read rebuilt the marks")
	}
	ids, dst := []int64{6, 7, 8}, make([][]*annotation.Annotation, 3)
	if n := testing.AllocsPerRun(100, func() { bm.MarksOf(dst, ids, testMark) }); n != 0 {
		t.Fatalf("batched read of built marks allocated %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { bm.Marks(8, testMark) }); n != 0 {
		t.Fatalf("read of an unmarked row allocated %v times", n)
	}
	bm.Clear(7, 2)
	if after := bm.Marks(7, testMark); after[2] != nil || after[1] == nil || after[1] == first[1] {
		t.Fatalf("marks after Clear = %v, want a rebuilt slot 1 only", after)
	}
}

// TestBitmapMarksBesideWriters reads cached marks from several goroutines
// while another sets and clears bits. Under -race this checks the
// build-and-publish under the read lock; every read must return marks for
// the row it asked about, one slot per column.
func TestBitmapMarksBesideWriters(t *testing.T) {
	const rows, cols = 8, 3
	bm := NewBitmap("T", cols)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(9))
		for i := 0; i < 3000; i++ {
			if rowID, col := 1+r.Int63n(rows), r.Intn(cols); r.Intn(2) == 0 {
				bm.Set(rowID, col)
			} else {
				bm.Clear(rowID, col)
			}
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			ids := []int64{1, 2, 3, 4, 5, 6, 7, 8}
			dst := make([][]*annotation.Annotation, len(ids))
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				bm.MarksOf(dst, ids, testMark)
				for i, marks := range dst {
					if marks == nil {
						continue
					}
					if len(marks) != cols {
						errs <- fmt.Errorf("row %d: %d slots, want %d", ids[i], len(marks), cols)
						return
					}
					for col, m := range marks {
						if m != nil && m.Body != fmt.Sprintf("row %d col %d", ids[i], col) {
							errs <- fmt.Errorf("row %d col %d: mark %q", ids[i], col, m.Body)
							return
						}
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBitmapMarksOfMatchesMarks compares MarksOf with per-row Marks on
// random bit sets, after random Set and Clear steps, for whole chunk-sized
// windows of RowIDs, windows straddling a chunk boundary and sparse
// ascending lists such as an index probe gathers.
func TestBitmapMarksOfMatchesMarks(t *testing.T) {
	const rows, cols, chunk = 3 * 1024, 4, 1024
	bm := NewBitmap("T", cols)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		bm.Set(1+r.Int63n(rows), r.Intn(cols))
	}
	check := func(step int, ids []int64) {
		t.Helper()
		dst := make([][]*annotation.Annotation, len(ids)+1)
		dst[len(ids)] = bm.Marks(ids[0], testMark) // past the list: left alone
		sentinel := dst[len(ids)]
		for i := range ids {
			dst[i] = []*annotation.Annotation{} // stale content must be overwritten
		}
		bm.MarksOf(dst, ids, testMark)
		for i, id := range ids {
			if want := bm.Marks(id, testMark); !sameMarks(dst[i], want) {
				t.Fatalf("step %d: row %d: MarksOf %v, Marks %v", step, id, dst[i], want)
			}
		}
		if !sameMarks(dst[len(ids)], sentinel) {
			t.Fatalf("step %d: MarksOf wrote past its list", step)
		}
		if len(bm.marked) != len(bm.rows) {
			t.Fatalf("step %d: %d marked entries for %d marked rows", step, len(bm.marked), len(bm.rows))
		}
		for i, e := range bm.marked {
			if i > 0 && bm.marked[i-1].rowID >= e.rowID {
				t.Fatalf("step %d: marked entries out of order at %d: %d then %d", step, i, bm.marked[i-1].rowID, e.rowID)
			}
			if bm.rows[e.rowID] != e.row {
				t.Fatalf("step %d: row %d's entry is not its bits", step, e.rowID)
			}
		}
	}
	for step := 0; step < 300; step++ {
		for i := 0; i < 20; i++ {
			rowID, col := 1+r.Int63n(rows), r.Intn(cols)
			if r.Intn(2) == 0 {
				bm.Set(rowID, col)
			} else {
				bm.Clear(rowID, col)
			}
		}
		// A chunk-sized window, one straddling a boundary, a sparse list.
		lo := int64(1 + r.Intn(rows-chunk))
		if step%3 == 1 {
			lo = int64(chunk - r.Intn(100))
		}
		window := make([]int64, chunk)
		for i := range window {
			window[i] = lo + int64(i)
		}
		check(step, window)
		var sparse []int64
		for id := int64(1 + r.Intn(5)); id <= rows+10; id += 1 + r.Int63n(40) {
			sparse = append(sparse, id)
		}
		check(step, sparse)
	}
}

// TestBitmapMarksOfBesideConcurrentSet merges ascending RowID lists against
// the marked rows while another goroutine sets and clears bits on other
// rows. Under -race this checks the sorted list is only touched under the
// write lock; rows the writer never touches must read exactly as marked.
func TestBitmapMarksOfBesideConcurrentSet(t *testing.T) {
	const rows, cols = 2048, 3
	bm := NewBitmap("T", cols)
	for id := int64(7); id <= rows; id += 7 {
		bm.Set(id, int(id%cols))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 5000; i++ {
			rowID := 7*r.Int63n(rows/7) + 3 // never a multiple of 7
			if col := r.Intn(cols); r.Intn(2) == 0 {
				bm.Set(rowID, col)
			} else {
				bm.Clear(rowID, col)
			}
		}
	}()
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			ids := make([]int64, 0, rows)
			for id := int64(1 + g); id <= rows; id += 1 + int64(g) {
				ids = append(ids, id)
			}
			dst := make([][]*annotation.Annotation, len(ids))
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				bm.MarksOf(dst, ids, testMark)
				for i, id := range ids {
					marks := dst[i]
					if id%7 == 0 {
						if marks == nil || marks[id%cols] == nil || marks[id%cols].Body != fmt.Sprintf("row %d col %d", id, id%cols) {
							errs <- fmt.Errorf("stable row %d: marks %v", id, marks)
							return
						}
						continue
					}
					if marks != nil && id%7 != 3 {
						errs <- fmt.Errorf("row %d is never marked but reads %v", id, marks)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
