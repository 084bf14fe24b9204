package core

// Live rollback and crash recovery are two readers of one transaction frame.
// This differential harness holds them to the same answer on every record
// kind: for seeded random transactions that mix row changes (with dependency
// marks and approval operations riding on them), ADD / ARCHIVE / RESTORE
// ANNOTATION, CREATE / DROP ANNOTATION TABLE, CREATE INDEX, CREATE / DROP
// TABLE, agent (un)registration, APPROVE / DISAPPROVE, savepoints and failing
// statements, three states must agree — the state before the transaction,
// the state after a live ROLLBACK, and the state a crash image taken with
// the frame still open recovers to. A second variant commits after its
// ROLLBACK TOs and compares the live state with the reopened one.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bdbms/internal/dependency"
	"bdbms/internal/exec"
	"bdbms/internal/value"
)

// diffState renders what rollback and recovery must agree on: every table's
// schema, indexes, annotation tables and rows; every annotation with its
// archive flag and ArchivedAt; the outdated cells; the agents. withOps adds
// the approval operations, which are session-scoped (a reopen starts without
// them), so only live states compare them.
func diffState(t *testing.T, db *DB, withOps bool) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range db.Storage().Tables() {
		s := tbl.Schema()
		fmt.Fprintf(&b, "table %s pk=%s", strings.ToLower(s.Name), s.PrimaryKey)
		for _, c := range s.Columns {
			fmt.Fprintf(&b, " %s:%s:%v", c.Name, c.Type, c.NotNull)
		}
		fmt.Fprintf(&b, "\n  indexes %v\n", tbl.IndexColumns())
		var defs []string
		for _, def := range db.Storage().Catalog().AnnotationTables(s.Name) {
			defs = append(defs, fmt.Sprintf("%s|%s|%v", strings.ToLower(def.Name), def.Category, def.SystemManaged))
		}
		sort.Strings(defs)
		fmt.Fprintf(&b, "  annotation tables %v\n", defs)
		if err := tbl.Scan(func(rowID int64, row value.Row) bool {
			fmt.Fprintf(&b, "  %d=%s\n", rowID, row)
			return true
		}); err != nil {
			t.Fatalf("scan %s: %v", s.Name, err)
		}
	}
	stamp := func(at time.Time) string { return at.UTC().Format(time.RFC3339Nano) }
	anns, _ := db.Annotations().Snapshot()
	for _, a := range anns {
		fmt.Fprintf(&b, "ann %d %s.%s by %s %q created=%s archived=%v at=%s %v\n",
			a.ID, strings.ToLower(a.UserTable), strings.ToLower(a.AnnTable), a.Author, a.Body,
			stamp(a.CreatedAt), a.Archived, stamp(a.ArchivedAt), a.Regions)
	}
	cells := db.Dependencies().OutdatedCells()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Table != cells[j].Table {
			return cells[i].Table < cells[j].Table
		}
		if cells[i].RowID != cells[j].RowID {
			return cells[i].RowID < cells[j].RowID
		}
		return cells[i].Col < cells[j].Col
	})
	fmt.Fprintf(&b, "outdated %v\nagents %v\n", cells, db.Provenance().Agents())
	if withOps {
		for _, op := range db.Authorization().Operations("", "") {
			fmt.Fprintf(&b, "op %d %s %s row %d %s by %q\n", op.ID, op.Kind, op.Table, op.RowID, op.Status, op.Approver)
		}
	}
	return b.String()
}

// requireSameState fails with both renderings and the transaction's
// statement log when two states differ.
func requireSameState(t *testing.T, what, want, got string, stmts []string) {
	t.Helper()
	if got == want {
		return
	}
	t.Fatalf("%s differs\n--- got\n%s--- want\n%s--- transaction\n%s", what, got, want, strings.Join(stmts, "\n"))
}

// copyImage copies the database files in src to dst as a killed process
// leaves them: whatever the page file and the log hold right now, and the
// checkpoint files if one was ever written (data.db.catalog exists only in
// images of the two-file checkpoint format).
func copyImage(t *testing.T, src, dst string) {
	t.Helper()
	for _, name := range []string{"data.db", "data.db.wal", "data.db.catalog", "data.db.manifest"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// diffSetup builds the committed state the transaction starts from: a
// monitored Gene table with an index, a dependency rule from Seq to Score
// and marks already set, two annotation tables with live and archived
// annotations, two scratch tables (one with an annotation table of its own),
// pending approval operations and agents.
// Even seeds checkpoint it, odd seeds leave it all in the WAL.
func diffSetup(t *testing.T, db *DB, seed int64) {
	t.Helper()
	stmts := []string{
		`CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, Name TEXT, Seq SEQUENCE, Score INT)`,
		`CREATE INDEX ON Gene (Name)`,
		`CREATE TABLE Scratch0 (N INT NOT NULL PRIMARY KEY, V TEXT)`,
		`CREATE TABLE Scratch1 (N INT, V TEXT)`,
		`INSERT INTO Scratch0 VALUES (1, 'a'), (2, 'b'), (3, 'c')`,
		`INSERT INTO Scratch1 VALUES (1, 'x'), (2, 'y')`,
	}
	for gid := 1; gid <= 12; gid++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO Gene VALUES (%d, 'g%d', 'ACGT%s', %d)`,
			gid, gid, strings.Repeat("A", gid), 10*gid))
	}
	stmts = append(stmts,
		`CREATE ANNOTATION TABLE Notes ON Gene`,
		`CREATE ANNOTATION TABLE Lab ON Gene CATEGORY 'provenance'`,
		`ADD ANNOTATION TO Gene.Notes VALUE '<Annotation>n1</Annotation>' ON (SELECT Name FROM Gene WHERE GID <= 4)`,
		`ADD ANNOTATION TO Gene.Lab VALUE '<Annotation>l1</Annotation>' ON (SELECT * FROM Gene WHERE GID >= 3 AND GID <= 8)`,
		`ADD ANNOTATION TO Gene.Lab VALUE '<Annotation>l2</Annotation>' ON (SELECT Seq FROM Gene WHERE GID >= 7)`,
		`ARCHIVE ANNOTATION FROM Gene.Lab ON (SELECT * FROM Gene WHERE GID = 8)`,
		`CREATE ANNOTATION TABLE Tags ON Scratch0 CATEGORY 'scratch'`,
		`ADD ANNOTATION TO Scratch0.Tags VALUE '<Annotation>s1</Annotation>' ON (SELECT V FROM Scratch0 WHERE N = 2)`,
		`START CONTENT APPROVAL ON Gene COLUMNS (Name) APPROVED BY admin`,
		`UPDATE Gene SET Name = 'renamed1' WHERE GID = 1`,
		`UPDATE Gene SET Name = 'renamed5' WHERE GID = 5`,
	)
	s := db.Session("admin")
	for _, sql := range stmts {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
	}
	if _, err := db.Dependencies().AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Gene", Column: "Seq"}},
		Targets: []dependency.ColumnRef{{Table: "Gene", Column: "Score"}},
		Proc:    dependency.Procedure{Name: "score-from-seq"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`UPDATE Gene SET Seq = 'GATTACA' WHERE GID = 2`); err != nil {
		t.Fatal(err)
	}
	for _, agent := range []string{"loader", "curator"} {
		if err := db.Provenance().RegisterAgent(agent); err != nil {
			t.Fatal(err)
		}
	}
	if seed%2 == 0 {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// diffTx runs one seeded random transaction on tx and returns its statement
// log. Statements may fail (a duplicate key, a dropped table, an unknown
// savepoint): a failed statement rolls back alone and the transaction goes
// on. Dropped tables may carry annotation tables, and a CREATE TABLE may
// take the name of a table the transaction dropped.
func diffTx(t *testing.T, db *DB, tx *exec.Tx, r *rand.Rand) []string {
	t.Helper()
	annTabs := []string{"Notes", "Lab"}
	tables := []string{"Scratch0", "Scratch1"}
	var dropped []string
	agents := []string{"loader", "curator", "aligner"}
	var log []string
	ok := 0
	run := func(sql string) {
		log = append(log, sql)
		_, err := tx.Exec(sql)
		if errors.Is(err, exec.ErrTxDone) {
			t.Fatalf("transaction ended under %q: %v\n%s", sql, err, strings.Join(log, "\n"))
		}
		if err == nil {
			ok++
		}
	}
	goOp := func(what string, err error) {
		log = append(log, what)
		if err == nil {
			ok++
		}
	}
	lo := func() int { return 1 + r.Intn(14) }
	// A savepoint first arms the transaction's frame, so the Go-surface
	// calls below append inside it.
	run(`SAVEPOINT s0`)
	created := 0
	for i := 0; i < 28; i++ {
		switch r.Intn(20) {
		case 0, 1:
			gid := 1 + r.Intn(24)
			run(fmt.Sprintf(`INSERT INTO Gene VALUES (%d, 'new%d', 'TTGA', %d)`, gid, i, r.Intn(100)))
		case 2, 3:
			run(fmt.Sprintf(`UPDATE Gene SET Name = 'n%d' WHERE GID = %d`, i, 1+r.Intn(16)))
		case 4:
			a := lo()
			run(fmt.Sprintf(`UPDATE Gene SET Seq = 'CC%d' WHERE GID >= %d AND GID <= %d`, i, a, a+r.Intn(4)))
		case 5:
			run(fmt.Sprintf(`UPDATE Gene SET Score = %d WHERE GID = %d`, r.Intn(1000), 1+r.Intn(16)))
		case 6:
			run(fmt.Sprintf(`DELETE FROM Gene WHERE GID = %d`, 1+r.Intn(16)))
		case 7:
			a := lo()
			col := []string{"*", "Name", "Seq", "Score"}[r.Intn(4)]
			run(fmt.Sprintf(`ADD ANNOTATION TO Gene.%s VALUE '<Annotation>t%d</Annotation>' ON (SELECT %s FROM Gene WHERE GID >= %d AND GID <= %d)`,
				annTabs[r.Intn(len(annTabs))], i, col, a, a+r.Intn(6)))
		case 8:
			verb := []string{"ARCHIVE", "RESTORE"}[r.Intn(2)]
			a := lo()
			run(fmt.Sprintf(`%s ANNOTATION FROM Gene.%s ON (SELECT * FROM Gene WHERE GID >= %d AND GID <= %d)`,
				verb, annTabs[r.Intn(len(annTabs))], a, a+r.Intn(8)))
		case 9:
			created++
			name := fmt.Sprintf("A%d", created)
			annTabs = append(annTabs, name)
			run(fmt.Sprintf(`CREATE ANNOTATION TABLE %s ON Gene`, name))
		case 10:
			run(fmt.Sprintf(`DROP ANNOTATION TABLE %s ON Gene`, annTabs[r.Intn(len(annTabs))]))
		case 11:
			target := []string{"Gene (Score)", "Gene (Seq)", "Scratch0 (V)", tables[r.Intn(len(tables))] + " (V)"}[r.Intn(4)]
			run(`CREATE INDEX ON ` + target)
		case 12:
			created++
			name := fmt.Sprintf("T%d", created)
			if len(dropped) > 0 && r.Intn(2) == 0 {
				name = dropped[r.Intn(len(dropped))]
			}
			tables = append(tables, name)
			run(fmt.Sprintf(`CREATE TABLE %s (N INT NOT NULL PRIMARY KEY, V TEXT)`, name))
			run(fmt.Sprintf(`INSERT INTO %s VALUES (1, 'p'), (2, 'q')`, name))
		case 13:
			name := tables[r.Intn(len(tables))]
			dropped = append(dropped, name)
			run(`DROP TABLE ` + name)
		case 14:
			tbl := tables[r.Intn(len(tables))]
			switch r.Intn(3) {
			case 0:
				run(fmt.Sprintf(`INSERT INTO %s VALUES (%d, 'r%d')`, tbl, 1+r.Intn(6), i))
			case 1:
				run(fmt.Sprintf(`UPDATE %s SET V = 'u%d' WHERE N <= %d`, tbl, i, 1+r.Intn(4)))
			default:
				run(fmt.Sprintf(`DELETE FROM %s WHERE N = %d`, tbl, 1+r.Intn(4)))
			}
		case 15:
			agent := agents[r.Intn(len(agents))]
			if r.Intn(2) == 0 {
				goOp(`\register `+agent, db.Provenance().RegisterAgent(agent))
			} else {
				goOp(`\unregister `+agent, db.Provenance().UnregisterAgent(agent))
			}
		case 16:
			pending := db.Authorization().Pending("Gene")
			if len(pending) == 0 {
				continue
			}
			verb := []string{"APPROVE", "DISAPPROVE"}[r.Intn(2)]
			run(fmt.Sprintf(`%s OPERATION %d`, verb, pending[r.Intn(len(pending))].ID))
		case 17:
			run(fmt.Sprintf(`SAVEPOINT s%d`, r.Intn(3)))
		case 18:
			run(fmt.Sprintf(`ROLLBACK TO SAVEPOINT s%d`, r.Intn(3)))
		default:
			log = append(log, `\flush`)
			if err := db.Storage().FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ok < 8 {
		t.Fatalf("only %d of the transaction's operations succeeded; harness is vacuous\n%s", ok, strings.Join(log, "\n"))
	}
	return log
}

// TestLiveRollbackMatchesRecovery is the differential harness: per seed, a
// ROLLBACK variant (before == after live ROLLBACK == recovered crash image
// with the frame open) and a COMMIT variant (live == recovered).
func TestLiveRollbackMatchesRecovery(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, commit := range []bool{false, true} {
			seed, commit := seed, commit
			end := "rollback"
			if commit {
				end = "commit"
			}
			t.Run(fmt.Sprintf("seed-%02d/%s", seed, end), func(t *testing.T) {
				dir := t.TempDir()
				db := openDurable(t, dir, 8)
				defer db.crash()
				diffSetup(t, db.DB, seed)
				before := diffState(t, db.DB, true)
				beforeDurable := diffState(t, db.DB, false)

				tx, err := db.Session("admin").Begin(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				stmts := diffTx(t, db.DB, tx, rand.New(rand.NewSource(seed)))
				image := t.TempDir()
				want := beforeDurable
				if commit {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					copyImage(t, dir, image)
					want = diffState(t, db.DB, false)
				} else {
					// Uncommitted row images reach the page file, then the
					// process "dies" with the frame open.
					if err := db.Storage().FlushAll(); err != nil {
						t.Fatal(err)
					}
					copyImage(t, dir, image)
					if err := tx.Rollback(); err != nil {
						t.Fatal(err)
					}
					requireSameState(t, "state after live ROLLBACK", before, diffState(t, db.DB, true), stmts)
				}

				re := openDurable(t, image, 8)
				defer re.crash()
				requireSameState(t, "recovered crash image", want, diffState(t, re.DB, false), stmts)
				verifyIndexConsistency(t, re.DB)
			})
		}
	}
}
