// Verification and online backup.
//
// Verify is the full-database scrub behind `bdbms-cli verify`: it reads
// every page through the pager (checksums catch bit rot, torn frames and
// misdirected writes — including in pages no live table references), cross-
// checks each table's heap against its row index and B+-trees, validates
// the checkpoint manifest and catalog against the live engine, and proves
// every annotation is reachable through the annotation store's spatial
// index. Backup is the consistent-snapshot half: checkpoint with all
// writers quiesced, then copy the three files.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bdbms/internal/annotation"
	"bdbms/internal/pager"
	"bdbms/internal/storage"
)

// VerifyProblem is one finding of the scrub.
type VerifyProblem struct {
	// Area names the layer the problem was found in: "page", "table:<name>",
	// "stats:<name>", "manifest", "catalog" or "annotation".
	Area string
	// Detail is the human-readable description.
	Detail string
}

func (p VerifyProblem) String() string { return p.Area + ": " + p.Detail }

// VerifyReport summarises a scrub: what was covered and what failed.
type VerifyReport struct {
	// Pages is the number of pages scrubbed (every allocated page).
	Pages uint64
	// Tables, Rows and Indexes count the cross-checked logical structures.
	Tables  int
	Rows    int
	Indexes int
	// Annotations is the number of annotations probed for reachability.
	Annotations int
	// Problems is every finding; an empty slice means the database is clean.
	Problems []VerifyProblem
}

// Clean reports whether the scrub found no problems.
func (r *VerifyReport) Clean() bool { return len(r.Problems) == 0 }

// String renders the report in the format `bdbms-cli verify` prints.
func (r *VerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrubbed %d pages, %d tables (%d rows, %d indexes), %d annotations\n",
		r.Pages, r.Tables, r.Rows, r.Indexes, r.Annotations)
	if r.Clean() {
		b.WriteString("ok: no problems found")
		return b.String()
	}
	fmt.Fprintf(&b, "FAILED: %d problem(s)", len(r.Problems))
	for _, p := range r.Problems {
		b.WriteString("\n  " + p.String())
	}
	return b.String()
}

func (r *VerifyReport) addf(area, format string, args ...any) {
	r.Problems = append(r.Problems, VerifyProblem{Area: area, Detail: fmt.Sprintf(format, args...)})
}

// Verify scrubs the whole database and returns a report of everything it
// found. It quiesces the engine's lock manager — concurrent writers drain
// and wait, none are observed half-applied — and flushes dirty pages first
// so the on-disk scrub sees current content. The returned error covers
// operational failures only (the flush); integrity findings, including
// unreadable pages, are reported as Problems.
func (db *DB) Verify() (*VerifyReport, error) {
	locks := db.eng.Locks()
	locks.Quiesce()
	defer locks.Resume()
	rep := &VerifyReport{}

	if err := db.eng.FlushAll(); err != nil {
		return nil, fmt.Errorf("core: verify flush: %w", err)
	}

	// Layer 1 — physical: every allocated page must read back verified.
	// Reading through the pager (not the buffer pool) means a stale cache
	// cannot mask on-disk rot, and orphaned pages (e.g. from dropped
	// tables) are scrubbed too even though no table would ever read them.
	pgr := db.eng.Pager()
	rep.Pages = pgr.NumPages()
	page := make([]byte, pager.PageSize)
	for id := pager.PageID(0); uint64(id) < rep.Pages; id++ {
		if err := pgr.Read(id, page); err != nil {
			rep.addf("page", "%v", err)
		}
	}

	// Layer 2 — logical: heap ↔ row index ↔ B+-trees, per table, plus
	// no page claimed by two tables.
	owner := make(map[pager.PageID]string)
	for _, tbl := range db.eng.Tables() {
		area := "table:" + tbl.Name()
		rep.Tables++
		rep.Rows += tbl.RowCount()
		rep.Indexes += len(tbl.IndexColumns())
		for _, p := range tbl.CheckIntegrity() {
			rep.addf(area, "%s", p)
		}
		for _, pg := range tbl.HeapPages() {
			if uint64(pg) >= rep.Pages {
				rep.addf(area, "heap page %d is beyond the file (%d pages)", pg, rep.Pages)
			}
			if prev, taken := owner[pg]; taken {
				rep.addf(area, "heap page %d is also claimed by table %s", pg, prev)
			}
			owner[pg] = tbl.Name()
		}
		db.verifyStats(rep, tbl)
	}

	// Layer 3 — checkpoint metadata: the manifest must parse and only
	// reference pages the file has; the catalog and the live engine must
	// agree on which tables exist.
	if db.durable() {
		db.verifyManifest(rep)
		for _, schema := range db.eng.Catalog().Tables() {
			if !db.eng.HasTable(schema.Name) {
				rep.addf("catalog", "table %s has a catalog entry but no attached storage", schema.Name)
			}
		}
		for _, tbl := range db.eng.Tables() {
			if !db.eng.Catalog().HasTable(tbl.Name()) {
				rep.addf("catalog", "table %s is attached but missing from the catalog", tbl.Name())
			}
		}
	}

	// Layer 4 — annotations: every annotation (archived included) must be
	// reachable back through the spatial store by each of its regions.
	anns, _ := db.ann.Snapshot()
	probe := annotation.Filter{IncludeArchived: true}
	for _, a := range anns {
		rep.Annotations++
		for _, reg := range a.Regions {
			found := false
			for _, got := range db.ann.ForRegion(reg, probe) {
				if got.ID == a.ID {
					found = true
					break
				}
			}
			if !found {
				rep.addf("annotation", "annotation %d (%s on %s) is not reachable through region %+v", a.ID, a.AnnTable, a.UserTable, reg)
			}
		}
	}
	return rep, nil
}

// verifyStats cross-checks a table's incrementally-maintained planner
// statistics against a from-scratch recompute: row and NULL counts must be
// exact, the widened-only range must contain the true range, and the frozen
// distinct counts must sit within the documented drift bound |Distinct -
// exact| <= Mods. Tables whose statistics were never built are skipped —
// absent statistics are a valid planner state, not a defect. Neither side of
// the comparison mutates the database (CurrentStats does not rebuild,
// ComputeStats is pure).
func (db *DB) verifyStats(rep *VerifyReport, tbl *storage.Table) {
	cur := tbl.CurrentStats()
	if cur == nil {
		return
	}
	area := "stats:" + tbl.Name()
	exact, err := tbl.ComputeStats()
	if err != nil {
		rep.addf(area, "recompute failed: %v", err)
		return
	}
	if cur.Rows != exact.Rows {
		rep.addf(area, "row count %d, exact %d", cur.Rows, exact.Rows)
	}
	if len(cur.Cols) != len(exact.Cols) {
		rep.addf(area, "%d column entries, schema has %d columns", len(cur.Cols), len(exact.Cols))
		return
	}
	for i := range cur.Cols {
		cc, ec := cur.Cols[i], exact.Cols[i]
		col := tbl.Schema().Columns[i].Name
		if cc.Nulls != ec.Nulls {
			rep.addf(area, "column %s: NULL count %d, exact %d", col, cc.Nulls, ec.Nulls)
		}
		if ec.HasRange && (!cc.HasRange || cc.Min > ec.Min || cc.Max < ec.Max) {
			rep.addf(area, "column %s: range [%v, %v] does not contain the true range [%v, %v]",
				col, cc.Min, cc.Max, ec.Min, ec.Max)
		}
		drift := cc.Distinct - ec.Distinct
		if drift < 0 {
			drift = -drift
		}
		if drift > cur.Mods {
			rep.addf(area, "column %s: distinct drift %d exceeds the mod counter %d", col, drift, cur.Mods)
		}
	}
}

// verifyManifest checks the on-disk manifest: it must parse, reference only
// pages inside the file, and not claim one page for two tables.
func (db *DB) verifyManifest(rep *VerifyReport) {
	m, err := loadManifest(db.manifestPath())
	if err != nil {
		rep.addf("manifest", "%v", err)
		return
	}
	if m == nil {
		return // no checkpoint yet: an empty WAL-only database is fine
	}
	numPages := db.eng.Pager().NumPages()
	owner := make(map[uint64]string)
	for _, mt := range m.Tables {
		for _, pg := range mt.Pages {
			if pg >= numPages {
				rep.addf("manifest", "table %s references page %d beyond the file (%d pages)", mt.Name, pg, numPages)
			}
			if prev, taken := owner[pg]; taken {
				rep.addf("manifest", "page %d is claimed by both %s and %s", pg, prev, mt.Name)
			}
			owner[pg] = mt.Name
		}
	}
	if next := db.wal.NextLSN(); m.CheckpointLSN >= next {
		rep.addf("manifest", "checkpoint LSN %d is not below the next LSN %d", m.CheckpointLSN, next)
	}
}

// Backup takes a consistent online snapshot of a durable database into
// destDir: it checkpoints with the lock manager quiesced (so the page
// file alone carries the full committed state and the WAL is empty) and
// copies the three files — page file, WAL and manifest — fsyncing each and
// then destDir itself. The copy set opens as a normal database — restore
// is `bdbms.OpenWith(DataFile: destDir/<name>)` — and passes Verify.
// Concurrent writers block for the duration; snapshot readers do not.
func (db *DB) Backup(destDir string) error {
	locks := db.eng.Locks()
	locks.Quiesce()
	defer locks.Resume()
	if !db.durable() {
		return errors.New("core: backup requires a file-backed database")
	}
	if err := db.checkpointLocked(); err != nil {
		return fmt.Errorf("core: backup checkpoint: %w", err)
	}
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return fmt.Errorf("core: backup: %w", err)
	}
	for _, src := range []string{db.opts.DataFile, db.opts.DataFile + ".wal", db.manifestPath()} {
		if err := copyFileSync(src, filepath.Join(destDir, filepath.Base(src))); err != nil {
			return fmt.Errorf("core: backup %s: %w", src, err)
		}
	}
	if err := syncDir(destDir); err != nil {
		return fmt.Errorf("core: backup: %w", err)
	}
	return nil
}

// copyFileSync copies src to dst and fsyncs the copy.
func copyFileSync(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = io.Copy(out, in); err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
