package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bdbms/internal/wal"
)

// TestRecoverParentCommitCrashImage opens a data directory written by the
// commit BEFORE the row-change refactor (PR 12's tree): a checkpoint of 20
// rows, a committed WAL tail (bare INSERT/UPDATE/DELETE plus one committed
// transaction) and then an unclosed transaction frame holding every row
// record kind, whose uncommitted images were flushed to the page file before
// the process died. Recovery must redo the committed tail and undo the open
// frame from the payloads exactly as the old Recover* appliers did — the
// proof that the Change codec reads the old on-disk format. The fixture was
// produced by testdata/parent_unclosed_tx/README.md's generator.
func TestRecoverParentCommitCrashImage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent_unclosed_tx")
	for _, name := range []string{"data.db", "data.db.wal", "data.db.catalog", "data.db.manifest"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The image really ends inside a frame: the last control record is a
	// TxBegin with no commit or abort after it.
	wlog, err := wal.Open(filepath.Join(dir, "data.db.wal"))
	if err != nil {
		t.Fatal(err)
	}
	lastControl := wal.Kind(0)
	rowRecs := 0
	for _, rec := range wlog.Since(0) {
		switch rec.Kind {
		case wal.KindTxBegin, wal.KindTxCommit, wal.KindTxAbort:
			lastControl = rec.Kind
			rowRecs = 0
		case wal.KindInsert, wal.KindUpdate, wal.KindDelete:
			rowRecs++
		}
	}
	wlog.Close()
	if lastControl != wal.KindTxBegin || rowRecs != 5 {
		t.Fatalf("fixture tail: last control record %s followed by %d row records, want an open frame of 5", lastControl, rowRecs)
	}

	db := openDurable(t, dir, 8)
	defer db.crash()
	res, err := db.Exec(`SELECT GID, Name, Score FROM Gene ORDER BY GID`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, row.Values.String())
	}
	var want []string
	for i := 1; i <= 22; i++ {
		name, score := "g"+strconv.Itoa(i), i*10
		switch i {
		case 2:
			score = 25
		case 3:
			continue
		case 4:
			name = "renamed4"
		}
		want = append(want, "("+strconv.Itoa(i)+", "+name+", "+strconv.Itoa(score)+")")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("recovered rows:\n%s\nwant the committed prefix:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	verifyIndexConsistency(t, db.DB)
	rep, err := db.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("verify after recovering the parent's image: %v", rep.Problems)
	}
}
