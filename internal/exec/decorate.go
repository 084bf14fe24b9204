package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"bdbms/internal/annotation"
	"bdbms/internal/dependency"
)

// Decoration attaches to each surviving row the annotations its ANNOTATION
// clause asks for and the outdated marks of its cells (Sections 3 and 5).
//
// Annotations are read per window of rows, not per cell: each source keeps
// the annotations intersecting rows [lo, hi] × all its columns, read with one
// Manager.ForRegion call, and answers every cell of a row inside the window
// from them. A row past the window's end opens a window twice as long, up to
// decorateWindowCap rows, so an ascending scan makes one R-tree search per
// run of rows; any other row opens a one-row window, so a point read makes
// one search per row instead of one per column. A window is used only while
// the manager's generation is the one it was read under, so every row sees
// exactly what ForCell would have returned when the row was decorated.
//
// Outdated marks come from the bitmap's per-row cache (Bitmap.Marks): built
// once per marked row, shared read-only by every query until the row's bits
// change.

// decorateWindowCap is the longest window, in rows. An ascending scan reads
// windows of 1, 2, 4, … rows up to it. Decorating 2 000 ascending rows of a
// 5-column, 20 000-row table with two 20-row annotations per row (2-core
// Xeon VM, three runs each) took 5.0 ms with ForCell per cell, 3.5 ms with
// one-row windows, 0.53-0.76 ms capped at 8, 0.29-0.33 ms at 64 (the
// fastest), 0.35-0.43 ms at 128 or 256 and up to 0.56 ms at 1 024, where
// every row walks a long window's regions. A LIMIT that stops pulling wastes
// at most one window.
const decorateWindowCap = 64

// decorateWindows counts annotation windows read; the fuzzer asserts it
// moved, so windowed decoration stays compared against the reference
// executor's per-cell lookups.
var decorateWindows atomic.Int64

// annSource is the per-source decoration plan: which annotation tables the
// ANNOTATION clause requested and the outdated bitmap, both resolved once
// per query instead of once per row, plus the current annotation window.
type annSource struct {
	src    *sourcePlan
	want   bool
	filter annotation.Filter
	bm     *dependency.Bitmap
	win    annWindow
}

// annWindow holds what a source's rows [lo, hi] need: every region, on the
// source's table, of the filter-matched annotations intersecting them,
// clipped to the window and the table's columns, in annotation-ID order.
// hi < lo before the first read.
type annWindow struct {
	lo, hi int64
	gen    uint64
	regs   []windowRegion
}

type windowRegion struct {
	ann              *annotation.Annotation
	rowStart, rowEnd int64
	colStart, colEnd int
}

// decorator attaches annotations and outdated marks to pipeline rows.
// Resolving the per-source state once at construction lets the streaming
// cursor decorate one row per Next call at the same cost per row as the
// batch path.
type decorator struct {
	s         *Session
	plans     []annSource
	totalCols int
	anyWork   bool
	// wantAnns is set when some source has an ANNOTATION clause; without it
	// the only decoration work there can be is outdated marks.
	wantAnns bool
}

// newDecorator resolves the decoration plan of each source.
func (s *Session) newDecorator(sources []*sourcePlan) *decorator {
	d := &decorator{s: s, plans: make([]annSource, len(sources))}
	for i, src := range sources {
		d.totalCols += src.numCols
		as := annSource{src: src, win: annWindow{lo: 1}}
		if len(src.ref.Annotations) > 0 {
			as.want, d.wantAnns = true, true
			if src.ref.Annotations[0] != "*" {
				as.filter.AnnTables = src.ref.Annotations
			}
		}
		if s.Dep != nil {
			if bm := s.Dep.Bitmap(src.tbl.Name()); bm.Any() {
				as.bm = bm
			}
		}
		if as.want || as.bm != nil {
			d.anyWork = true
		}
		d.plans[i] = as
	}
	return d
}

// decorate attaches the requested annotations and outdated marks to one row.
// With no ANNOTATION clause and no outdated marks it leaves r.anns nil, which
// every reader takes for totalCols empty cells.
func (d *decorator) decorate(r *execRow) {
	if !d.anyWork {
		return
	}
	r.anns = make([][]*annotation.Annotation, d.totalCols)
	for j := range d.plans {
		as := &d.plans[j]
		rowID := r.origins[j].rowID
		if as.want {
			as.annotate(r.anns, d.s.Ann, rowID)
		}
		if as.bm != nil {
			as.appendMarks(r.anns, as.bm.Marks(rowID, as))
		}
	}
}

// annotate sets the source's cells of anns, one row's annotation cells, to
// what ForCell returns for each cell of row rowID: the filter-matched
// annotations covering it in ID order, nil when there are none.
func (as *annSource) annotate(anns [][]*annotation.Annotation, m *annotation.Manager, rowID int64) {
	w := &as.win
	if gen := m.Generation(); gen != w.gen || rowID < w.lo || rowID > w.hi {
		as.readWindow(m, rowID, gen)
	}
	// The row's cells share one array, sized by counting the cells its
	// regions cover (an annotation whose regions overlap counts twice).
	// Regions are in ID order and an annotation's regions are adjacent, so
	// comparing with the annotation appended last lists each annotation once
	// per cell.
	var buf [16]int32
	hits := buf[:0] // the regions covering the row
	total := 0
	for i := range w.regs {
		if reg := &w.regs[i]; rowID >= reg.rowStart && rowID <= reg.rowEnd {
			hits = append(hits, int32(i))
			total += reg.colEnd - reg.colStart + 1
		}
	}
	if total == 0 {
		return
	}
	all := make([]*annotation.Annotation, 0, total)
	for c := 0; c < as.src.numCols; c++ {
		start := len(all)
		for _, i := range hits {
			reg := &w.regs[i]
			if c < reg.colStart || c > reg.colEnd {
				continue
			}
			if len(all) > start && all[len(all)-1] == reg.ann {
				continue
			}
			all = append(all, reg.ann)
		}
		if len(all) > start {
			// Capped, so appending an outdated mark copies instead of
			// writing into the next column's annotations.
			anns[as.src.offset+c] = all[start:len(all):len(all)]
		}
	}
}

// readWindow reads the window that row rowID opens, under generation gen,
// which the caller loaded before the read.
func (as *annSource) readWindow(m *annotation.Manager, rowID int64, gen uint64) {
	w := &as.win
	size := int64(1)
	if w.hi >= w.lo && rowID > w.hi {
		size = min(2*(w.hi-w.lo+1), decorateWindowCap)
	}
	w.lo, w.hi, w.gen = rowID, rowID+size-1, gen
	if w.hi < w.lo {
		w.hi = math.MaxInt64
	}
	name := as.src.tbl.Name()
	anns := m.ForRegion(annotation.RowsRegion(name, w.lo, w.hi, as.src.numCols), as.filter)
	clear(w.regs)
	w.regs = slices.Grow(w.regs[:0], len(anns))
	lastCol := as.src.numCols - 1
	for _, a := range anns {
		for _, r := range a.Regions {
			if r.RowEnd < w.lo || r.RowStart > w.hi || r.ColEnd < 0 || r.ColStart > lastCol {
				continue
			}
			// ForCell looks a cell up in the R-tree of the table the store
			// keys by the lowered name, so a region naming another table
			// never covers this one's cells.
			if r.Table != name && strings.ToLower(r.Table) != strings.ToLower(name) {
				continue
			}
			w.regs = append(w.regs, windowRegion{
				ann:      a,
				rowStart: max(r.RowStart, w.lo), rowEnd: min(r.RowEnd, w.hi),
				colStart: max(r.ColStart, 0), colEnd: min(r.ColEnd, lastCol),
			})
		}
	}
	decorateWindows.Add(1)
}

// appendMarks appends to anns, one row's annotation cells, the source row's
// outdated marks as Bitmap.Marks returns them (one slot per column, nil
// where the cell is current). The marks are shared: cells hold the pointers,
// nobody writes through them.
func (as *annSource) appendMarks(anns [][]*annotation.Annotation, marks []*annotation.Annotation) {
	for c, mk := range marks {
		if mk != nil && c < as.src.numCols {
			anns[as.src.offset+c] = append(anns[as.src.offset+c], mk)
		}
	}
}

// Mark implements dependency.Marker: the outdated bitmap caches what it
// returns.
func (as *annSource) Mark(rowID int64, col int) *annotation.Annotation {
	return outdatedMark(as.src.tbl.Name(), as.src.tbl.Schema().Columns[col].Name, rowID, col)
}

// outdatedMark is the synthetic annotation a query attaches to outdated cell
// (rowID, col) of table: the reference executor builds one per read, the
// outdated bitmap caches one per marked cell.
func outdatedMark(table, column string, rowID int64, col int) *annotation.Annotation {
	return &annotation.Annotation{
		AnnTable:  OutdatedAnnTable,
		UserTable: table,
		Author:    "system:dependency-tracker",
		Body: fmt.Sprintf("<Annotation>OUTDATED: %s.%s of row %d needs re-verification</Annotation>",
			table, column, rowID),
		Regions: []annotation.Region{annotation.CellRegion(table, rowID, col)},
	}
}
