package core

// Tests of the checkpoint's on-disk form: one manifest carrying the catalog,
// and the conversion of databases whose catalog still lives in a separate
// file next to a manifest without one.

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// dirEntries lists the names in dir, sorted.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestCheckpointWritesThreeFiles checks the file set a checkpoint leaves:
// the page file, the log and the manifest — no catalog file, no temp file —
// and that the manifest carries the catalog.
func TestCheckpointWritesThreeFiles(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, 8)
	defer db.crash()
	if _, err := runScript(db.DB, crashScript()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(dirEntries(t, dir), " "), "data.db data.db.manifest data.db.wal"; got != want {
		t.Fatalf("files after checkpoint: %s, want %s", got, want)
	}
	m, err := loadManifest(db.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if m.Catalog == nil || len(m.Catalog.Tables()) != len(db.eng.Tables()) {
		t.Fatalf("manifest catalog does not hold the %d live tables", len(db.eng.Tables()))
	}
}

// openParentFixture copies the image written by the two-file checkpoint
// format (its manifest has no catalog; data.db.catalog holds it) into a
// fresh directory and opens it.
func openParentFixture(t *testing.T) (string, *durableDB) {
	t.Helper()
	dir := t.TempDir()
	copyImage(t, filepath.Join("testdata", "parent_unclosed_tx"), dir)
	return dir, openDurable(t, dir, 8)
}

// TestParentImageCheckpointDropsCatalogFile converts an image of the
// two-file format: the first checkpoint moves the catalog into the
// manifest and removes the old catalog file, and the database reopens to
// the same state.
func TestParentImageCheckpointDropsCatalogFile(t *testing.T) {
	dir, db := openParentFixture(t)
	want := dumpDB(t, db.DB)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "data.db.catalog")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("catalog file after checkpoint: %v, want it removed", err)
	}
	db.shutdown(t)

	re := openDurable(t, dir, 8)
	defer re.crash()
	compareDumps(t, "converted image", want, dumpDB(t, re.DB))
	verifyIndexConsistency(t, re.DB)
}

// TestParentImageCrashAfterManifest crashes the converting checkpoint right
// after its manifest rename, before the old catalog file is removed. The
// stale file lacks a table created since, so recovery only succeeds if it
// reads the manifest's catalog and ignores the file; the next checkpoint
// then removes it.
func TestParentImageCrashAfterManifest(t *testing.T) {
	dir, db := openParentFixture(t)
	runWorkload(t, db.DB, []string{
		`CREATE TABLE Extra (N INT NOT NULL PRIMARY KEY, T TEXT)`,
		`INSERT INTO Extra VALUES (1, 'x'), (2, 'y')`,
	})
	want := dumpDB(t, db.DB)

	errInjected := errors.New("injected checkpoint fault")
	checkpointFaultHook = func(p string) error {
		if p == "after-manifest" {
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
	catalogFile := filepath.Join(dir, "data.db.catalog")
	if _, err := os.Stat(catalogFile); err != nil {
		t.Fatalf("stale catalog file should survive the crash: %v", err)
	}

	re := openDurable(t, dir, 8)
	defer re.crash()
	compareDumps(t, "crash after manifest", want, dumpDB(t, re.DB))
	verifyIndexConsistency(t, re.DB)
	rep, err := re.DB.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("verify after recovery: %v", rep.Problems)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(catalogFile); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("catalog file after the next checkpoint: %v, want it removed", err)
	}
}

// TestSyncDirError checks that a directory fsync that cannot happen is
// reported, not swallowed. (The power-loss ordering it protects — manifest
// rename durable before the WAL truncation — needs a real power cut to
// observe.)
func TestSyncDirError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir on a live directory: %v", err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(dir); err == nil {
		t.Fatal("syncDir on a removed directory succeeded")
	}
}
