package dependency

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bdbms/internal/annotation"
	"bdbms/internal/rle"
)

// Bitmap tracks which cells of one table are outdated (Figure 10 of the
// paper): bit (rowID, column) is set when the cell needs re-verification.
// The in-memory representation is sparse (only rows with at least one set bit
// are materialised); CompressedSize reports what a Run-Length-Encoded
// serialisation of the full bitmap would occupy, the measure of E7.
type Bitmap struct {
	mu      sync.RWMutex
	table   string
	numCols int
	rows    map[int64]*markedRow
	// marked holds the entries of rows in ascending RowID order, so MarksOf
	// can merge a batch's RowIDs against it instead of probing the map per
	// RowID.
	marked []markedEntry
}

type markedEntry struct {
	rowID int64
	row   *markedRow
}

// markedAt returns where rowID's entry is, or would be, in b.marked.
func (b *Bitmap) markedAt(rowID int64) int {
	i, _ := slices.BinarySearchFunc(b.marked, rowID, func(e markedEntry, id int64) int { return cmp.Compare(e.rowID, id) })
	return i
}

// markedRow is one row with at least one outdated cell: its bits, and the
// synthetic annotations queries attach for them (Marks), built on the first
// read after the row last changed. Readers build under the read lock and
// publish with a compare-and-swap; Set and Clear drop them under the write
// lock, so a published list always matches the bits.
type markedRow struct {
	bits  []bool
	marks atomic.Pointer[[]*annotation.Annotation]
}

// Marker builds the synthetic annotation a query attaches to an outdated
// cell.
type Marker interface {
	Mark(rowID int64, col int) *annotation.Annotation
}

// NewBitmap creates a bitmap for a table with numCols columns.
func NewBitmap(table string, numCols int) *Bitmap {
	if numCols < 1 {
		numCols = 1
	}
	return &Bitmap{table: table, numCols: numCols, rows: make(map[int64]*markedRow)}
}

// Table returns the table this bitmap belongs to.
func (b *Bitmap) Table() string { return b.table }

// NumCols returns the column count of the bitmap.
func (b *Bitmap) NumCols() int { return b.numCols }

// Set marks cell (rowID, col) outdated.
func (b *Bitmap) Set(rowID int64, col int) {
	if col < 0 || col >= b.numCols {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	row, ok := b.rows[rowID]
	if !ok {
		row = &markedRow{bits: make([]bool, b.numCols)}
		b.rows[rowID] = row
		b.marked = slices.Insert(b.marked, b.markedAt(rowID), markedEntry{rowID, row})
	}
	row.bits[col] = true
	row.marks.Store(nil)
}

// Clear resets cell (rowID, col).
func (b *Bitmap) Clear(rowID int64, col int) {
	if col < 0 || col >= b.numCols {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	row, ok := b.rows[rowID]
	if !ok {
		return
	}
	row.bits[col] = false
	row.marks.Store(nil)
	for _, set := range row.bits {
		if set {
			return
		}
	}
	delete(b.rows, rowID)
	i := b.markedAt(rowID)
	b.marked = slices.Delete(b.marked, i, i+1)
}

// IsSet reports whether cell (rowID, col) is outdated.
func (b *Bitmap) IsSet(rowID int64, col int) bool {
	if col < 0 || col >= b.numCols {
		return false
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	row, ok := b.rows[rowID]
	return ok && row.bits[col]
}

// Any reports whether any cell of the table is outdated. Rows with no set
// bits are evicted by Clear, so a non-empty row map means at least one set
// bit; scans use this to skip per-row bitmap probing entirely on clean
// tables.
func (b *Bitmap) Any() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.rows) > 0
}

// RowOutdated reports whether any cell of the row is outdated.
func (b *Bitmap) RowOutdated(rowID int64) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	row, ok := b.rows[rowID]
	if !ok {
		return false
	}
	for _, set := range row.bits {
		if set {
			return true
		}
	}
	return false
}

// Marks returns row rowID's synthetic annotations, one slot per column, nil
// where the cell is current; nil when no cell of the row is outdated. They
// are built by m on the first read after the row last changed and shared by
// every later read, so the caller must not modify them, and every reader of
// one bitmap must pass a Marker that builds the same annotations. m runs
// under the bitmap's read lock and must not call back into the bitmap.
func (b *Bitmap) Marks(rowID int64, m Marker) []*annotation.Annotation {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.marksLocked(rowID, m)
}

// MarksOf sets dst[i] to Marks(rowIDs[i], m) for every i, under one read
// lock. dst must be at least as long as rowIDs, and rowIDs must be ascending
// (a chunk's RowIDs and a gathered batch's are): MarksOf merge-walks them
// against the marked rows and never probes the map.
func (b *Bitmap) MarksOf(dst [][]*annotation.Annotation, rowIDs []int64, m Marker) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	clear(dst[:len(rowIDs)])
	if len(rowIDs) == 0 {
		return
	}
	k := b.markedAt(rowIDs[0])
	for i, rowID := range rowIDs {
		for k < len(b.marked) && b.marked[k].rowID < rowID {
			k++
		}
		if k == len(b.marked) {
			return
		}
		if e := &b.marked[k]; e.rowID == rowID {
			dst[i] = b.rowMarks(rowID, e.row, m)
		}
	}
}

// marksLocked is Marks; the caller holds b.mu for reading.
func (b *Bitmap) marksLocked(rowID int64, m Marker) []*annotation.Annotation {
	row, ok := b.rows[rowID]
	if !ok {
		return nil
	}
	return b.rowMarks(rowID, row, m)
}

// rowMarks returns the marks of row, the marked row rowID, building and
// publishing them on the first read; the caller holds b.mu for reading.
func (b *Bitmap) rowMarks(rowID int64, row *markedRow, m Marker) []*annotation.Annotation {
	if p := row.marks.Load(); p != nil {
		return *p
	}
	built := make([]*annotation.Annotation, b.numCols)
	for col, set := range row.bits {
		if set {
			built[col] = m.Mark(rowID, col)
		}
	}
	if row.marks.CompareAndSwap(nil, &built) {
		return built
	}
	return *row.marks.Load()
}

// Count returns the number of outdated cells.
func (b *Bitmap) Count() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, row := range b.rows {
		for _, set := range row.bits {
			if set {
				n++
			}
		}
	}
	return n
}

// OutdatedCells returns every outdated (rowID, col) pair, sorted.
func (b *Bitmap) OutdatedCells() []Cell {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []Cell
	for rowID, row := range b.rows {
		for col, set := range row.bits {
			if set {
				out = append(out, Cell{Table: b.table, RowID: rowID, Col: col})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RowID != out[j].RowID {
			return out[i].RowID < out[j].RowID
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// serialize renders the bitmap row-major as a '0'/'1' string over rows
// [1, maxRowID], the form that is RLE-compressed on disk.
func (b *Bitmap) serialize(maxRowID int64) string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var sb strings.Builder
	sb.Grow(int(maxRowID) * b.numCols)
	for rowID := int64(1); rowID <= maxRowID; rowID++ {
		row, ok := b.rows[rowID]
		for col := 0; col < b.numCols; col++ {
			if ok && row.bits[col] {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}

// RawSize returns the size in bytes of the uncompressed bitmap covering rows
// [1, maxRowID] at one byte per cell.
func (b *Bitmap) RawSize(maxRowID int64) int {
	return int(maxRowID) * b.numCols
}

// CompressedSize returns the size in bytes of the RLE-compressed bitmap
// covering rows [1, maxRowID].
func (b *Bitmap) CompressedSize(maxRowID int64) int {
	return rle.Encode(b.serialize(maxRowID)).CompressedSize()
}

// CompressionRatio returns RawSize / CompressedSize for rows [1, maxRowID].
func (b *Bitmap) CompressionRatio(maxRowID int64) float64 {
	cs := b.CompressedSize(maxRowID)
	if cs == 0 {
		return 1
	}
	return float64(b.RawSize(maxRowID)) / float64(cs)
}

// Cell identifies one cell of a table.
type Cell struct {
	Table string
	RowID int64
	Col   int
}
