package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bdbms/internal/annotation"
	"bdbms/internal/dependency"
	"bdbms/internal/exec"
	"bdbms/internal/pager"
	"bdbms/internal/provenance"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// durableDB is a durable core DB plus the page file and log it opened, so
// tests can inspect them and simulate a crash (drop everything without
// checkpointing) or a clean shutdown.
type durableDB struct {
	*DB
	pgr  *pager.FilePager
	wlog *wal.Log
}

// openDurable opens (or reopens) the durable database living in dir.
func openDurable(t *testing.T, dir string, poolSize int) *durableDB {
	t.Helper()
	db, err := tryOpenDurable(dir, poolSize)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func tryOpenDurable(dir string, poolSize int) (*durableDB, error) {
	db, err := Open(Options{PoolSize: poolSize, DataFile: filepath.Join(dir, "data.db")})
	if err != nil {
		return nil, err
	}
	return &durableDB{DB: db, pgr: db.file, wlog: db.wal}, nil
}

// crash abandons the database without checkpointing: buffered state is
// dropped on the floor and only the file handles are released, exactly what
// a killed process leaves behind.
func (d *durableDB) crash() { d.closeFiles() }

// shutdown closes the database cleanly (checkpoint + close files).
func (d *durableDB) shutdown(t *testing.T) {
	t.Helper()
	if err := d.DB.Close(); err != nil {
		t.Fatal(err)
	}
}

// timeRe matches the wall-clock element of provenance bodies; the oracle
// database runs at a different instant, so comparisons normalize it away.
// (The recovered database preserves the ORIGINAL timestamp — replay carries
// it in the WAL record — which is exactly why it differs from the oracle's.)
var timeRe = regexp.MustCompile(`<Time>[^<]*</Time>`)

func normalizeBody(s string) string { return timeRe.ReplaceAllString(s, "<Time/>") }

// dbDump is a canonical rendering of everything durability must preserve.
type dbDump struct {
	tables    map[string]map[int64]string // table -> rowID -> row values
	indexes   map[string][]string         // table -> indexed columns
	annTables map[string][]string         // user table -> annotation table defs
	anns      []string                    // canonical annotation records
	outdated  []dependency.Cell
	agents    []string
}

func dumpDB(t *testing.T, db *DB) *dbDump {
	t.Helper()
	d := &dbDump{
		tables:    map[string]map[int64]string{},
		indexes:   map[string][]string{},
		annTables: map[string][]string{},
		agents:    db.Provenance().Agents(),
		outdated:  db.Dependencies().OutdatedCells(),
	}
	for _, tbl := range db.Storage().Tables() {
		name := strings.ToLower(tbl.Name())
		rows := map[int64]string{}
		err := tbl.Scan(func(rowID int64, row value.Row) bool {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			rows[rowID] = strings.Join(parts, "|")
			return true
		})
		if err != nil {
			t.Fatalf("scan %s: %v", tbl.Name(), err)
		}
		d.tables[name] = rows
		d.indexes[name] = tbl.IndexColumns()
		for _, def := range db.Storage().Catalog().AnnotationTables(tbl.Name()) {
			d.annTables[name] = append(d.annTables[name],
				fmt.Sprintf("%s|%s|%v", strings.ToLower(def.Name), def.Category, def.SystemManaged))
		}
		sort.Strings(d.annTables[name])
	}
	anns, _ := db.Annotations().Snapshot()
	for _, a := range anns {
		d.anns = append(d.anns, fmt.Sprintf("%d|%s|%s|%s|%s|%v|%v",
			a.ID, strings.ToLower(a.AnnTable), strings.ToLower(a.UserTable),
			a.Author, normalizeBody(a.Body), a.Archived, a.Regions))
	}
	sort.Strings(d.anns)
	return d
}

func compareDumps(t *testing.T, label string, want, got *dbDump) {
	t.Helper()
	if len(want.tables) != len(got.tables) {
		t.Fatalf("%s: table count %d != %d", label, len(got.tables), len(want.tables))
	}
	for name, wantRows := range want.tables {
		gotRows, ok := got.tables[name]
		if !ok {
			t.Fatalf("%s: table %s missing", label, name)
		}
		if len(wantRows) != len(gotRows) {
			t.Fatalf("%s: %s has %d rows, want %d", label, name, len(gotRows), len(wantRows))
		}
		for id, w := range wantRows {
			if g := gotRows[id]; g != w {
				t.Errorf("%s: %s row %d = %q, want %q", label, name, id, g, w)
			}
		}
		if w, g := strings.Join(want.indexes[name], ","), strings.Join(got.indexes[name], ","); w != g {
			t.Errorf("%s: %s indexes = %q, want %q", label, name, g, w)
		}
		if w, g := strings.Join(want.annTables[name], ";"), strings.Join(got.annTables[name], ";"); w != g {
			t.Errorf("%s: %s annotation tables = %q, want %q", label, name, g, w)
		}
	}
	if w, g := strings.Join(want.anns, "\n"), strings.Join(got.anns, "\n"); w != g {
		t.Errorf("%s: annotations differ\n got: %s\nwant: %s", label, g, w)
	}
	if w, g := fmt.Sprint(want.outdated), fmt.Sprint(got.outdated); w != g {
		t.Errorf("%s: outdated cells = %s, want %s", label, g, w)
	}
	if w, g := strings.Join(want.agents, ","), strings.Join(got.agents, ","); w != g {
		t.Errorf("%s: agents = %q, want %q", label, g, w)
	}
}

// verifyIndexConsistency cross-checks every secondary index against a heap
// scan: each live non-NULL cell must be probeable, and the index must hold
// no stale entries.
func verifyIndexConsistency(t *testing.T, db *DB) {
	t.Helper()
	for _, tbl := range db.Storage().Tables() {
		schema := tbl.Schema()
		for _, col := range tbl.IndexColumns() {
			idx := schema.ColumnIndex(col)
			if idx < 0 {
				t.Fatalf("%s: indexed column %s not in schema", tbl.Name(), col)
			}
			var wantIDs []int64
			err := tbl.Scan(func(rowID int64, row value.Row) bool {
				if row[idx].IsNull() {
					return true
				}
				wantIDs = append(wantIDs, rowID)
				ids, err := tbl.LookupEqual(col, row[idx])
				if err != nil {
					t.Fatalf("%s.%s lookup: %v", tbl.Name(), col, err)
				}
				found := false
				for _, id := range ids {
					if id == rowID {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s.%s: row %d missing from index", tbl.Name(), col, rowID)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			gotIDs, err := tbl.IndexRange(col, value.NewNull(), false, value.NewNull(), false)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
			if fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) {
				t.Errorf("%s.%s: index rows %v, heap rows %v", tbl.Name(), col, gotIDs, wantIDs)
			}
		}
	}
}

// workloadStatements is a full exercise of the durable surface: DDL, DML,
// secondary indexes, annotation tables, annotations, archiving, and a
// dropped table.
func workloadStatements() []string {
	stmts := []string{
		`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GLen INT)`,
		`CREATE TABLE Protein (PID TEXT NOT NULL PRIMARY KEY, GID TEXT, PFunction TEXT)`,
		`CREATE TABLE Scratch (N INT)`,
		`CREATE INDEX ON Gene (GName)`,
		`CREATE INDEX ON Protein (GID)`,
	}
	for i := 0; i < 12; i++ {
		stmts = append(stmts,
			fmt.Sprintf(`INSERT INTO Gene VALUES ('JW%04d', 'gene%d', %d)`, i, i%5, 50+i*17),
			fmt.Sprintf(`INSERT INTO Protein VALUES ('P%04d', 'JW%04d', 'func%d')`, i, i, i%3),
		)
	}
	stmts = append(stmts,
		`INSERT INTO Scratch VALUES (1), (2), (3)`,
		`CREATE ANNOTATION TABLE Comments ON Gene`,
		`CREATE ANNOTATION TABLE Lab ON Protein`,
		`ADD ANNOTATION TO Gene.Comments VALUE 'long gene, curated' ON (SELECT GID FROM Gene WHERE GLen > 150)`,
		`ADD ANNOTATION TO Protein.Lab VALUE 'verified by mass-spec' ON (SELECT PFunction FROM Protein WHERE GID = 'JW0003')`,
		`UPDATE Gene SET GName = 'renamed' WHERE GID = 'JW0002'`,
		`UPDATE Protein SET PFunction = 'unknown' WHERE GID = 'JW0004'`,
		`DELETE FROM Gene WHERE GID = 'JW0007'`,
		`ADD ANNOTATION TO Gene.Comments VALUE 'second pass' ON (SELECT * FROM Gene WHERE GLen < 100)`,
		`ARCHIVE ANNOTATION FROM Gene.Comments ON (SELECT * FROM Gene)`,
		`DELETE FROM Protein WHERE PID = 'P0009'`,
		`DROP TABLE Scratch`,
		`UPDATE Gene SET GLen = 999 WHERE GID = 'JW0001'`,
	)
	return stmts
}

// applyGoSurface exercises the Go-level mutations (provenance agents and a
// dependency rule whose marks must survive) before the SQL workload runs.
func applyGoSurface(t *testing.T, db *DB) {
	t.Helper()
	db.Provenance().RegisterAgent("loader")
	db.Provenance().RegisterAgent("blast-tool")
	db.Provenance().UnregisterAgent("blast-tool")
}

// depRule links Gene.GLen -> Protein.PFunction via GID so UPDATEs on Gene
// mark Protein cells outdated. Rules are Go values and must be re-registered
// after reopen; the marks themselves are durable.
func depRule() dependency.Rule {
	return dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Gene", Column: "GLen"}},
		Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PFunction"}},
		Proc:    dependency.Procedure{Name: "length-to-function", Executable: false},
		Link:    &dependency.Link{SourceColumn: "GID", TargetColumn: "GID"},
	}
}

func addDependencyRule(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.Dependencies().AddRule(depRule()); err != nil {
		t.Fatal(err)
	}
}

// attachProvenance records a provenance entry through the registered agent.
func attachProvenance(t *testing.T, db *DB) {
	t.Helper()
	_, err := db.Provenance().Attach("loader", "Gene", provenance.Record{
		Source: "RegulonDB", Action: provenance.ActionCopy,
	}, []annotation.Region{annotation.CellRegion("Gene", 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
}

func runWorkload(t *testing.T, db *DB, stmts []string) {
	t.Helper()
	s := db.Session("admin")
	for _, stmt := range stmts {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("workload %q: %v", stmt, err)
		}
	}
}

// queryBattery compares a set of SELECTs (with annotation propagation)
// between two databases, statement by statement, row by row.
func queryBattery(t *testing.T, label string, want, got *DB) {
	t.Helper()
	queries := []string{
		`SELECT GID, GName, GLen FROM Gene`,
		`SELECT GID, GLen FROM Gene WHERE GLen > 150`,
		`SELECT GID FROM Gene WHERE GName = 'gene1'`, // index probe
		`SELECT Gene.GID, Protein.PFunction FROM Gene, Protein WHERE Gene.GID = Protein.GID`,
		`SELECT GID, GLen FROM Gene ANNOTATION(*) WHERE GLen < 200`,
		`SELECT PID, PFunction FROM Protein ANNOTATION(Lab)`,
		`SELECT GName, COUNT(*) FROM Gene GROUP BY GName ORDER BY GName`,
	}
	for _, q := range queries {
		wr, err := want.Exec(q)
		if err != nil {
			t.Fatalf("%s: oracle %q: %v", label, q, err)
		}
		gr, err := got.Exec(q)
		if err != nil {
			t.Fatalf("%s: recovered %q: %v", label, q, err)
		}
		if w, g := renderResult(wr), renderResult(gr); w != g {
			t.Errorf("%s: %q differs\n got: %s\nwant: %s", label, q, g, w)
		}
	}
}

func renderResult(res *exec.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		b.WriteString("\n")
		parts := make([]string, len(row.Values))
		for i, v := range row.Values {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, "|"))
		var anns []string
		for _, a := range row.AnnotationsFlat() {
			anns = append(anns, fmt.Sprintf("[%s/%s/%s]", a.AnnTable, a.Author, normalizeBody(a.Body)))
		}
		sort.Strings(anns)
		b.WriteString(" " + strings.Join(anns, ""))
	}
	return b.String()
}

// TestReopenAfterCleanClose is the acceptance scenario: a full workload
// (DDL + DML + annotations + provenance + dependency marks + index builds)
// closed and reopened must answer every query identically to a database
// that never closed.
func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, 8) // tiny pool: evictions flush pages mid-run
	applyGoSurface(t, db.DB)
	runWorkload(t, db.DB, workloadStatements()[:5])
	addDependencyRule(t, db.DB)
	runWorkload(t, db.DB, workloadStatements()[5:])
	attachProvenance(t, db.DB)
	db.shutdown(t)

	reopened := openDurable(t, dir, 8)
	defer reopened.crash()

	oracle := MustOpen(Options{})
	applyGoSurface(t, oracle)
	runWorkload(t, oracle, workloadStatements()[:5])
	addDependencyRule(t, oracle)
	runWorkload(t, oracle, workloadStatements()[5:])
	attachProvenance(t, oracle)

	compareDumps(t, "clean close", dumpDB(t, oracle), dumpDB(t, reopened.DB))
	verifyIndexConsistency(t, reopened.DB)
	queryBattery(t, "clean close", oracle, reopened.DB)

	// A clean close checkpoints, so reopening needs no replay.
	if n := reopened.wlog.Len(); n != 0 {
		t.Errorf("WAL holds %d records after clean close, want 0", n)
	}
}

// TestReopenAfterCrash drops the database without any checkpoint: the whole
// state must come back from the WAL alone.
func TestReopenAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, 8)
	applyGoSurface(t, db.DB)
	runWorkload(t, db.DB, workloadStatements()[:5])
	addDependencyRule(t, db.DB)
	runWorkload(t, db.DB, workloadStatements()[5:])
	attachProvenance(t, db.DB)
	db.crash()

	reopened := openDurable(t, dir, 8)
	defer reopened.crash()

	oracle := MustOpen(Options{})
	applyGoSurface(t, oracle)
	runWorkload(t, oracle, workloadStatements()[:5])
	addDependencyRule(t, oracle)
	runWorkload(t, oracle, workloadStatements()[5:])
	attachProvenance(t, oracle)

	compareDumps(t, "crash", dumpDB(t, oracle), dumpDB(t, reopened.DB))
	verifyIndexConsistency(t, reopened.DB)
	queryBattery(t, "crash", oracle, reopened.DB)
}

// TestReopenAfterTornCheckpointWithDrop crashes a checkpoint at its last
// step before the commit point — pages flushed and synced, manifest not yet
// written — right after a DROP TABLE: the old manifest still lists the
// dropped table and the WAL tail holds the drop. Recovery must treat the
// drop as the committed truth and open cleanly.
func TestReopenAfterTornCheckpointWithDrop(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, 8)
	runWorkload(t, db.DB, []string{
		`CREATE TABLE Keep (N INT NOT NULL PRIMARY KEY, T TEXT)`,
		`CREATE TABLE Doomed (N INT)`,
		`INSERT INTO Keep VALUES (1, 'a'), (2, 'b')`,
		`INSERT INTO Doomed VALUES (7), (8)`,
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db.DB, []string{
		`INSERT INTO Keep VALUES (3, 'c')`,
		`DROP TABLE Doomed`,
	})
	errInjected := errors.New("injected checkpoint fault")
	checkpointFaultHook = func(p string) error {
		if p == "after-sync" {
			return errInjected
		}
		return nil
	}
	err := db.Checkpoint()
	checkpointFaultHook = nil
	if !errors.Is(err, errInjected) {
		t.Fatalf("checkpoint = %v, want the injected fault", err)
	}
	db.crash()

	re, err := tryOpenDurable(dir, 8)
	if err != nil {
		t.Fatalf("torn checkpoint bricked the database: %v", err)
	}
	defer re.crash()
	if re.DB.Storage().HasTable("Doomed") {
		t.Error("dropped table resurrected")
	}
	res, err := re.DB.Exec(`SELECT N, T FROM Keep`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("Keep has %d rows, want 3", len(res.Rows))
	}
	verifyIndexConsistency(t, re.DB)
}

// TestReopenAfterMidWorkloadCheckpoint splits the workload across a manual
// checkpoint and then crashes: recovery must combine the snapshot with the
// replayed tail.
func TestReopenAfterMidWorkloadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	stmts := workloadStatements()
	db := openDurable(t, dir, 8)
	applyGoSurface(t, db.DB)
	runWorkload(t, db.DB, stmts[:5])
	addDependencyRule(t, db.DB)
	mid := 5 + len(stmts[5:])/2
	runWorkload(t, db.DB, stmts[5:mid])
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db.DB, stmts[mid:])
	attachProvenance(t, db.DB)
	db.crash()

	reopened := openDurable(t, dir, 8)
	defer reopened.crash()

	oracle := MustOpen(Options{})
	applyGoSurface(t, oracle)
	runWorkload(t, oracle, stmts[:5])
	addDependencyRule(t, oracle)
	runWorkload(t, oracle, stmts[5:])
	attachProvenance(t, oracle)

	compareDumps(t, "mid checkpoint", dumpDB(t, oracle), dumpDB(t, reopened.DB))
	verifyIndexConsistency(t, reopened.DB)
	queryBattery(t, "mid checkpoint", oracle, reopened.DB)
}
