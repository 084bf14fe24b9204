package provenance

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bdbms/internal/annotation"
	"bdbms/internal/catalog"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

type stubResolver struct{}

func (stubResolver) ColumnCount(string) (int, error) { return 3, nil }
func (stubResolver) MaxRowID(string) (int64, error)  { return 10, nil }
func (stubResolver) WAL() *wal.Log                   { return wal.NewMemory() }

func newManagers(t *testing.T) (*annotation.Manager, *Manager) {
	t.Helper()
	cat := catalog.New()
	if err := cat.CreateTable(&catalog.Schema{Name: "Gene", Columns: []catalog.Column{
		{Name: "GID", Type: value.Text},
		{Name: "GName", Type: value.Text},
		{Name: "GSequence", Type: value.Sequence},
	}}); err != nil {
		t.Fatal(err)
	}
	am := annotation.NewManager(cat, stubResolver{})
	pm := NewManager(am)
	pm.RegisterAgent("loader")
	return am, pm
}

func TestRecordValidateAndEncode(t *testing.T) {
	good := Record{Source: "RegulonDB", Action: ActionCopy, Time: time.Now()}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	body, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "<Provenance>") || !strings.Contains(body, "RegulonDB") {
		t.Errorf("encoded body = %s", body)
	}
	decoded, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Source != "RegulonDB" || decoded.Action != ActionCopy {
		t.Errorf("decoded = %+v", decoded)
	}

	bad := Record{Action: "teleport", Source: "X"}
	if err := bad.Validate(); !errors.Is(err, ErrInvalidRecord) {
		t.Errorf("bad action: %v", err)
	}
	empty := Record{Action: ActionCopy}
	if err := empty.Validate(); !errors.Is(err, ErrInvalidRecord) {
		t.Errorf("missing source/program: %v", err)
	}
	if _, err := Decode("not xml at all <"); !errors.Is(err, ErrInvalidRecord) {
		t.Errorf("decode garbage: %v", err)
	}
	if _, err := bad.Encode(); err == nil {
		t.Error("encoding invalid record should fail")
	}
}

func TestAttachRequiresAgent(t *testing.T) {
	_, pm := newManagers(t)
	rec := Record{Source: "GenoBase", Action: ActionCopy}
	regions := []annotation.Region{annotation.ColumnRegion("Gene", 2, 10)}
	if _, err := pm.Attach("randomuser", "Gene", rec, regions); !errors.Is(err, ErrUnauthorizedAgent) {
		t.Errorf("unregistered agent: %v", err)
	}
	entry, err := pm.Attach("loader", "Gene", rec, regions)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Record.Agent != "loader" || entry.Record.Time.IsZero() {
		t.Errorf("entry record not completed: %+v", entry.Record)
	}
	if entry.Annotation.AnnTable != TableName {
		t.Errorf("stored in %s", entry.Annotation.AnnTable)
	}
	pm.UnregisterAgent("loader")
	if _, err := pm.Attach("loader", "Gene", rec, regions); !errors.Is(err, ErrUnauthorizedAgent) {
		t.Errorf("after unregister: %v", err)
	}
	if pm.IsAgent("loader") {
		t.Error("IsAgent after unregister")
	}
}

func TestAttachValidatesRecord(t *testing.T) {
	_, pm := newManagers(t)
	bad := Record{Action: ActionCopy} // no source/program
	if _, err := pm.Attach("loader", "Gene", bad, []annotation.Region{annotation.CellRegion("Gene", 1, 0)}); err == nil {
		t.Error("invalid record should fail")
	}
}

func TestEndUsersCannotWriteProvenanceDirectly(t *testing.T) {
	am, pm := newManagers(t)
	// Ensure the provenance table exists, then try to write it as a plain user
	// through the annotation manager.
	rec := Record{Source: "S1", Action: ActionCopy}
	if _, err := pm.Attach("loader", "Gene", rec, []annotation.Region{annotation.CellRegion("Gene", 1, 0)}); err != nil {
		t.Fatal(err)
	}
	_, err := am.Add("Gene", TableName, "<Provenance>forged</Provenance>", "mallory",
		[]annotation.Region{annotation.CellRegion("Gene", 1, 0)})
	if !errors.Is(err, annotation.ErrSystemManaged) {
		t.Errorf("end-user provenance write: %v", err)
	}
}

func TestSourceAtMultipleGranularities(t *testing.T) {
	_, pm := newManagers(t)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Figure 8: data copied from S2, later a column overwritten by S3, one
	// value updated by program P1.
	att := func(rec Record, regions ...annotation.Region) {
		t.Helper()
		if _, err := pm.Attach("loader", "Gene", rec, regions); err != nil {
			t.Fatal(err)
		}
	}
	att(Record{Source: "S2", Action: ActionCopy, Time: base},
		annotation.RowsRegion("Gene", 1, 10, 3))
	att(Record{Source: "S3", Action: ActionOverwrite, Time: base.Add(48 * time.Hour)},
		annotation.ColumnRegion("Gene", 2, 10))
	att(Record{Program: "P1", Action: ActionUpdate, Time: base.Add(72 * time.Hour)},
		annotation.CellRegion("Gene", 5, 2))

	// At T = base+1h, everything still comes from S2.
	e, err := pm.SourceAt("Gene", 5, 2, base.Add(time.Hour))
	if err != nil || e.Record.Source != "S2" {
		t.Fatalf("T1: %+v %v", e.Record, err)
	}
	// At T = base+50h, column 2 comes from S3.
	e, err = pm.SourceAt("Gene", 5, 2, base.Add(50*time.Hour))
	if err != nil || e.Record.Source != "S3" {
		t.Fatalf("T2: %+v %v", e.Record, err)
	}
	// At T = base+100h, cell (5,2) was updated by P1.
	e, err = pm.SourceAt("Gene", 5, 2, base.Add(100*time.Hour))
	if err != nil || e.Record.Program != "P1" {
		t.Fatalf("T3: %+v %v", e.Record, err)
	}
	// A different cell in column 2 is still S3.
	e, err = pm.SourceAt("Gene", 3, 2, base.Add(100*time.Hour))
	if err != nil || e.Record.Source != "S3" {
		t.Fatalf("other cell: %+v %v", e.Record, err)
	}
	// Column 0 was never overwritten: still S2.
	e, err = pm.SourceAt("Gene", 3, 0, base.Add(100*time.Hour))
	if err != nil || e.Record.Source != "S2" {
		t.Fatalf("col 0: %+v %v", e.Record, err)
	}
	// Before any provenance: not found.
	if _, err := pm.SourceAt("Gene", 3, 0, base.Add(-time.Hour)); !errors.Is(err, ErrNotFound) {
		t.Errorf("before history: %v", err)
	}

	// Sources aggregates the distinct origins of the cell.
	srcs := pm.Sources("Gene", 5, 2)
	if len(srcs) != 3 {
		t.Errorf("Sources = %v", srcs)
	}
	if rows := pm.ForRow("Gene", 5); len(rows) != 3 {
		t.Errorf("ForRow = %d entries", len(rows))
	}
}

func TestEnsureTableIdempotent(t *testing.T) {
	_, pm := newManagers(t)
	if err := pm.EnsureTable("Gene"); err != nil {
		t.Fatal(err)
	}
	if err := pm.EnsureTable("Gene"); err != nil {
		t.Errorf("second EnsureTable: %v", err)
	}
}
