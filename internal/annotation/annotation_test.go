package annotation

import (
	"errors"
	"testing"
	"time"

	"bdbms/internal/catalog"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// stubResolver is a TableResolver for tests.
type stubResolver struct {
	cols map[string]int
	rows map[string]int64
}

func (s stubResolver) ColumnCount(table string) (int, error) { return s.cols[table], nil }
func (s stubResolver) MaxRowID(table string) (int64, error)  { return s.rows[table], nil }
func (s stubResolver) WAL() *wal.Log                         { return wal.NewMemory() }

func newTestManager(t *testing.T, opts ...Option) *Manager {
	t.Helper()
	cat := catalog.New()
	if err := cat.CreateTable(&catalog.Schema{
		Name: "DB2_Gene",
		Columns: []catalog.Column{
			{Name: "GID", Type: value.Text},
			{Name: "GName", Type: value.Text},
			{Name: "GSequence", Type: value.Sequence},
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := stubResolver{cols: map[string]int{"DB2_Gene": 3}, rows: map[string]int64{"DB2_Gene": 5}}
	m := NewManager(cat, res, opts...)
	if err := m.CreateAnnotationTable("DB2_Gene", "GAnnotation", "comment", false); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegionBasics(t *testing.T) {
	r := Region{Table: "T", ColStart: 1, ColEnd: 2, RowStart: 3, RowEnd: 5}
	if !r.Covers(4, 2) || r.Covers(2, 2) || r.Covers(4, 0) {
		t.Error("Covers wrong")
	}
	if r.CellCount() != 6 {
		t.Errorf("CellCount = %d", r.CellCount())
	}
	if (Region{ColStart: 2, ColEnd: 1, RowStart: 1, RowEnd: 1}).CellCount() != 0 {
		t.Error("inverted region should cover 0 cells")
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

func TestRegionHelpers(t *testing.T) {
	if CellRegion("T", 7, 2).CellCount() != 1 {
		t.Error("CellRegion")
	}
	if RowRegion("T", 7, 3).CellCount() != 3 {
		t.Error("RowRegion")
	}
	if RowsRegion("T", 2, 4, 3).CellCount() != 9 {
		t.Error("RowsRegion")
	}
	if ColumnRegion("T", 1, 10).CellCount() != 10 {
		t.Error("ColumnRegion")
	}
	if TableRegion("T", 3, 10).CellCount() != 30 {
		t.Error("TableRegion")
	}
}

func TestRegionsForRowsCollapsesRuns(t *testing.T) {
	regs := RegionsForRows("T", []int64{5, 1, 2, 3, 7, 8, 3}, 0, 2)
	if len(regs) != 3 {
		t.Fatalf("regions = %v", regs)
	}
	if regs[0].RowStart != 1 || regs[0].RowEnd != 3 {
		t.Errorf("first run = %v", regs[0])
	}
	if regs[1].RowStart != 5 || regs[1].RowEnd != 5 {
		t.Errorf("second run = %v", regs[1])
	}
	if regs[2].RowStart != 7 || regs[2].RowEnd != 8 {
		t.Errorf("third run = %v", regs[2])
	}
	if RegionsForRows("T", nil, 0, 1) != nil {
		t.Error("empty rows should give nil")
	}
}

func TestAddAndRetrieve(t *testing.T) {
	m := newTestManager(t)
	// B3: annotate the entire GSequence column (column index 2, rows 1..5).
	b3, err := m.Add("DB2_Gene", "GAnnotation",
		"<Annotation>obtained from GenoBase</Annotation>", "curator",
		[]Region{ColumnRegion("DB2_Gene", 2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	// B5: annotate the entire first tuple.
	b5, err := m.Add("DB2_Gene", "GAnnotation",
		"<Annotation>This gene has an unknown function</Annotation>", "curator",
		[]Region{RowRegion("DB2_Gene", 1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if b3.ID == b5.ID {
		t.Error("IDs must be unique")
	}
	if m.Count("DB2_Gene") != 2 {
		t.Errorf("Count = %d", m.Count("DB2_Gene"))
	}
	if got := m.Get(b3.ID); got == nil || got.PlainBody() != "obtained from GenoBase" {
		t.Errorf("Get/PlainBody = %+v", got)
	}
	if m.Get(999) != nil {
		t.Error("missing ID should be nil")
	}

	// Cell (row 1, col 2) is covered by both; (row 3, col 2) only by B3;
	// (row 1, col 0) only by B5; (row 3, col 0) by none.
	if got := m.ForCell("DB2_Gene", 1, 2, Filter{}); len(got) != 2 {
		t.Errorf("cell(1,2) annotations = %d", len(got))
	}
	if got := m.ForCell("DB2_Gene", 3, 2, Filter{}); len(got) != 1 || got[0].ID != b3.ID {
		t.Errorf("cell(3,2) = %v", got)
	}
	if got := m.ForCell("DB2_Gene", 1, 0, Filter{}); len(got) != 1 || got[0].ID != b5.ID {
		t.Errorf("cell(1,0) = %v", got)
	}
	if got := m.ForCell("DB2_Gene", 3, 0, Filter{}); len(got) != 0 {
		t.Errorf("cell(3,0) = %v", got)
	}
	if got := m.ForRow("DB2_Gene", 3, Filter{}); len(got) != 1 {
		t.Errorf("row 3 = %v", got)
	}
	if got := m.ForTable("DB2_Gene", Filter{}); len(got) != 2 {
		t.Errorf("table = %v", got)
	}
}

func TestAddValidation(t *testing.T) {
	m := newTestManager(t)
	if _, err := m.Add("DB2_Gene", "Missing", "x", "u", []Region{CellRegion("DB2_Gene", 1, 0)}); !errors.Is(err, ErrNoAnnotationTable) {
		t.Errorf("missing annotation table: %v", err)
	}
	if _, err := m.Add("DB2_Gene", "GAnnotation", "x", "u", nil); !errors.Is(err, ErrEmptyRegion) {
		t.Errorf("empty regions: %v", err)
	}
	bad := Region{Table: "DB2_Gene", ColStart: 2, ColEnd: 1, RowStart: 1, RowEnd: 1}
	if _, err := m.Add("DB2_Gene", "GAnnotation", "x", "u", []Region{bad}); !errors.Is(err, ErrEmptyRegion) {
		t.Errorf("degenerate region: %v", err)
	}
}

func TestSystemManagedTables(t *testing.T) {
	m := newTestManager(t)
	if err := m.CreateAnnotationTable("DB2_Gene", "GProvenance", "provenance", true); err != nil {
		t.Fatal(err)
	}
	reg := []Region{CellRegion("DB2_Gene", 1, 0)}
	if _, err := m.Add("DB2_Gene", "GProvenance", "x", "alice", reg); !errors.Is(err, ErrSystemManaged) {
		t.Errorf("end-user write to provenance: %v", err)
	}
	if _, err := m.Add("DB2_Gene", "GProvenance", "x", "system:integrator", reg); err != nil {
		t.Errorf("system write to provenance: %v", err)
	}
}

func TestFilterByAnnTableAuthorArchived(t *testing.T) {
	m := newTestManager(t)
	if err := m.CreateAnnotationTable("DB2_Gene", "Lineage", "provenance", false); err != nil {
		t.Fatal(err)
	}
	reg := []Region{CellRegion("DB2_Gene", 1, 1)}
	m.Add("DB2_Gene", "GAnnotation", "comment 1", "alice", reg)
	m.Add("DB2_Gene", "Lineage", "from RegulonDB", "bob", reg)

	if got := m.ForCell("DB2_Gene", 1, 1, Filter{AnnTables: []string{"Lineage"}}); len(got) != 1 || got[0].Author != "bob" {
		t.Errorf("ann table filter = %v", got)
	}
	if got := m.ForCell("DB2_Gene", 1, 1, Filter{Author: "alice"}); len(got) != 1 || got[0].AnnTable != "GAnnotation" {
		t.Errorf("author filter = %v", got)
	}
	if got := m.ForCell("DB2_Gene", 1, 1, Filter{}); len(got) != 2 {
		t.Errorf("no filter = %v", got)
	}
}

func TestArchiveRestore(t *testing.T) {
	now := time.Date(2026, 6, 16, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	m := newTestManager(t, WithClock(clock))
	reg := []Region{CellRegion("DB2_Gene", 1, 1)}
	a, _ := m.Add("DB2_Gene", "GAnnotation", "old annotation", "u", reg)
	now = now.Add(time.Hour)
	b, _ := m.Add("DB2_Gene", "GAnnotation", "new annotation", "u", reg)

	// Archive only annotations created in the first half hour.
	n, err := m.Archive("DB2_Gene", []string{"GAnnotation"},
		TimeRange{To: a.CreatedAt.Add(time.Minute)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("archived %d, want 1", n)
	}
	if !m.Get(a.ID).Archived || m.Get(b.ID).Archived {
		t.Error("wrong annotation archived")
	}
	// Archived annotations are hidden unless requested.
	if got := m.ForCell("DB2_Gene", 1, 1, Filter{}); len(got) != 1 || got[0].ID != b.ID {
		t.Errorf("visible after archive = %v", got)
	}
	if got := m.ForCell("DB2_Gene", 1, 1, Filter{IncludeArchived: true}); len(got) != 2 {
		t.Errorf("with archived = %v", got)
	}
	// Restore by region.
	n, err = m.Restore("DB2_Gene", nil, TimeRange{}, []Region{CellRegion("DB2_Gene", 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d, want 1", n)
	}
	if m.Get(a.ID).Archived {
		t.Error("annotation should be restored")
	}
	// Archiving an already-archived annotation is not double counted.
	m.Archive("DB2_Gene", nil, TimeRange{}, nil)
	if n, _ := m.Archive("DB2_Gene", nil, TimeRange{}, nil); n != 0 {
		t.Errorf("re-archive counted %d", n)
	}
}

func TestDropAnnotationTableRemovesAnnotations(t *testing.T) {
	m := newTestManager(t)
	m.CreateAnnotationTable("DB2_Gene", "Lineage", "provenance", false)
	reg := []Region{CellRegion("DB2_Gene", 1, 1)}
	m.Add("DB2_Gene", "GAnnotation", "keep", "u", reg)
	m.Add("DB2_Gene", "Lineage", "drop me", "u", reg)
	if err := m.DropAnnotationTable("DB2_Gene", "Lineage"); err != nil {
		t.Fatal(err)
	}
	if err := m.DropAnnotationTable("DB2_Gene", "Lineage"); err == nil {
		t.Error("double drop should fail")
	}
	got := m.ForCell("DB2_Gene", 1, 1, Filter{IncludeArchived: true})
	if len(got) != 1 || got[0].AnnTable != "GAnnotation" {
		t.Errorf("after drop = %v", got)
	}
	if m.Count("DB2_Gene") != 1 {
		t.Errorf("Count = %d", m.Count("DB2_Gene"))
	}
}

func TestStorageSchemesAgreeAndDifferInSize(t *testing.T) {
	// The rectangle and per-cell stores must return the same annotations for
	// any cell, but the rectangle store uses far fewer records for
	// coarse-granularity annotations (E5).
	buildManager := func(s Store) *Manager {
		cat := catalog.New()
		cat.CreateTable(&catalog.Schema{Name: "G", Columns: []catalog.Column{
			{Name: "a", Type: value.Text}, {Name: "b", Type: value.Text}, {Name: "c", Type: value.Text},
		}})
		m := NewManager(cat, stubResolver{cols: map[string]int{"G": 3}, rows: map[string]int64{"G": 100}}, WithStore(s))
		m.CreateAnnotationTable("G", "Ann", "comment", false)
		return m
	}
	rect := buildManager(NewRectStore())
	cell := buildManager(NewCellStore())
	add := func(m *Manager) {
		m.Add("G", "Ann", "column annotation", "u", []Region{ColumnRegion("G", 1, 100)})
		m.Add("G", "Ann", "row annotation", "u", []Region{RowRegion("G", 42, 3)})
		m.Add("G", "Ann", "cell annotation", "u", []Region{CellRegion("G", 7, 0)})
	}
	add(rect)
	add(cell)

	for _, probe := range []struct {
		row int64
		col int
	}{{42, 1}, {42, 0}, {7, 0}, {7, 1}, {100, 1}, {100, 0}} {
		a := rect.ForCell("G", probe.row, probe.col, Filter{})
		b := cell.ForCell("G", probe.row, probe.col, Filter{})
		if len(a) != len(b) {
			t.Errorf("cell (%d,%d): rect %d vs cell %d annotations", probe.row, probe.col, len(a), len(b))
		}
	}
	if rect.StorageRecords() != 3 {
		t.Errorf("rect records = %d, want 3", rect.StorageRecords())
	}
	if cell.StorageRecords() != 100+3+1 {
		t.Errorf("cell records = %d, want 104", cell.StorageRecords())
	}
	if rect.StoreName() != "rectangle" || cell.StoreName() != "cell" {
		t.Error("store names wrong")
	}
}

func TestCellStoreRemove(t *testing.T) {
	s := NewCellStore()
	a := &Annotation{ID: 1, Regions: []Region{RowsRegion("T", 1, 3, 2)}}
	s.Add(a)
	if s.RecordCount() != 6 {
		t.Fatalf("records = %d", s.RecordCount())
	}
	s.Remove(a)
	if s.RecordCount() != 0 {
		t.Errorf("records after remove = %d", s.RecordCount())
	}
	if ids := s.IDsForCell("T", 1, 0); len(ids) != 0 {
		t.Errorf("ids after remove = %v", ids)
	}
	if ids := s.IDsForRegion(RowsRegion("T", 1, 3, 2)); len(ids) != 0 {
		t.Errorf("region ids after remove = %v", ids)
	}
}

func TestAnnotationCoversCellAndPlainBody(t *testing.T) {
	a := &Annotation{
		Body:    "  <Annotation>pseudogene</Annotation> ",
		Regions: []Region{CellRegion("T", 3, 1), CellRegion("T", 9, 2)},
	}
	if !a.CoversCell(3, 1) || !a.CoversCell(9, 2) || a.CoversCell(3, 2) {
		t.Error("CoversCell wrong")
	}
	if a.PlainBody() != "pseudogene" {
		t.Errorf("PlainBody = %q", a.PlainBody())
	}
}
