package core

// Checkpoint-under-fault tests: a crash or I/O error at ANY point inside the
// checkpoint sequence — between the flush, the pager fsync, the manifest
// rename (the commit point) and the WAL truncation — must leave a database
// that reopens to the exact committed state. A failed fsync must poison
// durability reporting: later checkpoints refuse to truncate the WAL and
// Close surfaces the error, so the database never claims durability it
// cannot prove.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"bdbms/internal/pager"
	"bdbms/internal/wal"
)

// faultDB is a durable database whose pager is wrapped in a FaultPager.
type faultDB struct {
	*DB
	fp   *pager.FaultPager
	file *pager.FilePager
	wlog *wal.Log
}

func openFaultDurable(t *testing.T, dir string, poolSize int) *faultDB {
	t.Helper()
	dataFile := filepath.Join(dir, "data.db")
	file, err := pager.OpenFile(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	fp := pager.NewFaultPager(file)
	db, err := Open(Options{Pager: fp, PoolSize: poolSize, DataFile: dataFile})
	if err != nil {
		t.Fatal(err)
	}
	return &faultDB{DB: db, fp: fp, file: file, wlog: db.wal}
}

// crash abandons the database without checkpointing.
func (d *faultDB) crash() {
	d.closeFiles()
	d.file.Close()
}

// oracleDump runs the full crash script on a memory database and dumps it.
func oracleDump(t *testing.T) *dbDump {
	t.Helper()
	oracle := MustOpen(Options{})
	if _, err := runScript(oracle, crashScript()); err != nil {
		t.Fatal(err)
	}
	return dumpDB(t, oracle)
}

// TestCheckpointCrashAtEveryPoint simulates a crash between every two steps
// of the checkpoint sequence: the checkpoint call fails with the injected
// error, and the reopened database recovers the full committed state no
// matter which side of the manifest commit point the crash hit.
func TestCheckpointCrashAtEveryPoint(t *testing.T) {
	errInjected := errors.New("injected checkpoint fault")
	want := oracleDump(t)

	points := []string{"after-flush", "after-sync", "after-manifest", "after-truncate"}
	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, 8)
			if _, err := runScript(db.DB, crashScript()); err != nil {
				t.Fatal(err)
			}

			checkpointFaultHook = func(p string) error {
				if p == point {
					return errInjected
				}
				return nil
			}
			defer func() { checkpointFaultHook = nil }()

			if err := db.Checkpoint(); !errors.Is(err, errInjected) {
				t.Fatalf("checkpoint = %v, want the injected fault at %s", err, point)
			}
			checkpointFaultHook = nil
			db.crash()

			re := openDurable(t, dir, 8)
			defer re.crash()
			compareDumps(t, "crash at "+point, want, dumpDB(t, re.DB))
			verifyIndexConsistency(t, re.DB)

			// The recovered database must also verify clean and be able to
			// complete the checkpoint the fault interrupted.
			rep, err := re.DB.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Errorf("recovered database not clean after crash at %s:\n%s", point, rep)
			}
			if err := re.Checkpoint(); err != nil {
				t.Errorf("checkpoint after recovery: %v", err)
			}
		})
	}
}

// TestCheckpointPagerFsyncPoisoning is the fsync-failure end-to-end case: a
// failed page-file fsync fails the checkpoint BEFORE the WAL is touched,
// every later checkpoint reports the poisoned pager, Close surfaces the
// error — and a reopen with fresh file handles recovers everything, because
// the WAL was never truncated.
func TestCheckpointPagerFsyncPoisoning(t *testing.T) {
	want := oracleDump(t)

	dir := t.TempDir()
	db := openFaultDurable(t, dir, 8)
	if _, err := runScript(db.DB, crashScript()); err != nil {
		t.Fatal(err)
	}
	walLen := db.wlog.Len()
	if walLen == 0 {
		t.Fatal("workload appended no WAL records; harness is vacuous")
	}

	db.fp.FailSyncAfter(0)
	if err := db.Checkpoint(); !errors.Is(err, pager.ErrInjectedSyncFailure) {
		t.Fatalf("checkpoint with failing fsync = %v, want injected sync failure", err)
	}
	if got := db.wlog.Len(); got != walLen {
		t.Fatalf("WAL truncated to %d records after a failed fsync (had %d) — committed state discarded on a lying disk", got, walLen)
	}

	// The pager is poisoned now: the disk may or may not hold what was
	// written, so no later checkpoint may claim durability either.
	if err := db.Checkpoint(); !errors.Is(err, pager.ErrSyncPoisoned) {
		t.Fatalf("checkpoint on poisoned pager = %v, want ErrSyncPoisoned", err)
	}
	if got := db.wlog.Len(); got != walLen {
		t.Fatalf("WAL truncated to %d records by a poisoned checkpoint", got)
	}
	if err := db.Close(); !errors.Is(err, pager.ErrSyncPoisoned) {
		t.Fatalf("Close on poisoned database = %v, want ErrSyncPoisoned surfaced", err)
	}
	db.crash()

	// Recovery path: fresh handles, intact WAL.
	re := openDurable(t, dir, 8)
	defer re.crash()
	compareDumps(t, "after poisoned fsync", want, dumpDB(t, re.DB))
	verifyIndexConsistency(t, re.DB)
	rep, err := re.DB.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("recovered database not clean:\n%s", rep)
	}
}

// TestCheckpointWALFsyncPoisoning poisons the WAL's own fsync: the first
// checkpoint fails at the final log sync, and the next checkpoint refuses
// to truncate the poisoned log instead of discarding records whose
// durability is unprovable.
func TestCheckpointWALFsyncPoisoning(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, 8)
	if _, err := runScript(db.DB, crashScript()); err != nil {
		t.Fatal(err)
	}

	db.wlog.FailSyncAfter(0)
	if err := db.Checkpoint(); !errors.Is(err, wal.ErrInjectedSyncFailure) {
		t.Fatalf("checkpoint with failing WAL fsync = %v, want injected sync failure", err)
	}
	// Appends after the failed checkpoint re-fill the log; the next
	// checkpoint must refuse to truncate it.
	if _, err := db.Session("admin").Exec(`INSERT INTO Gene VALUES ('JW9999', 'late', 1)`); err != nil {
		t.Fatal(err)
	}
	walLen := db.wlog.Len()
	if walLen == 0 {
		t.Fatal("insert appended no WAL records")
	}
	if err := db.Checkpoint(); !errors.Is(err, wal.ErrSyncPoisoned) {
		t.Fatalf("checkpoint on poisoned WAL = %v, want ErrSyncPoisoned", err)
	}
	if got := db.wlog.Len(); got != walLen {
		t.Fatalf("poisoned WAL truncated from %d to %d records", walLen, got)
	}
	db.crash()

	re := openDurable(t, dir, 8)
	defer re.crash()
	// Everything including the post-fault insert must be recovered: the
	// first checkpoint's manifest committed the pre-fault state and the
	// refused truncation kept the insert's records.
	oracle := MustOpen(Options{})
	if _, err := runScript(oracle, crashScript()); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Exec(`INSERT INTO Gene VALUES ('JW9999', 'late', 1)`); err != nil {
		t.Fatal(err)
	}
	compareDumps(t, "after poisoned WAL fsync", dumpDB(t, oracle), dumpDB(t, re.DB))
	verifyIndexConsistency(t, re.DB)
}

// TestCheckpointEIORetry injects a sticky EIO into every page write of the
// checkpoint, one write at a time: each faulted checkpoint must fail with
// the injected error, a retry after the "disk recovers" must succeed, and
// the reopened database must hold the full committed state. This is the
// transient-EIO twin of TestCrashInjectionEveryPagerWrite, which kills the
// process instead of retrying.
func TestCheckpointEIORetry(t *testing.T) {
	steps := crashScript()

	// Golden run to count the page writes a checkpoint performs.
	goldenDir := t.TempDir()
	golden := openFaultDurable(t, goldenDir, 256)
	if _, err := runScript(golden.DB, steps); err != nil {
		t.Fatal(err)
	}
	before := golden.fp.WriteCount()
	if err := golden.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writes := golden.fp.WriteCount() - before
	golden.crash()
	if writes == 0 {
		t.Fatal("checkpoint performed no page writes; harness is vacuous")
	}

	want := oracleDump(t)

	for w := 0; w < writes; w++ {
		w := w
		t.Run(fmt.Sprintf("fail-write-%02d", w), func(t *testing.T) {
			dir := t.TempDir()
			db := openFaultDurable(t, dir, 256) // no evictions: all writes at checkpoint
			if _, err := runScript(db.DB, steps); err != nil {
				t.Fatalf("workload should not touch the pager: %v", err)
			}
			db.fp.FailWriteAfter(w, pager.ErrInjectedEIO)
			if err := db.Checkpoint(); !errors.Is(err, pager.ErrInjectedEIO) {
				t.Fatalf("checkpoint = %v, want injected EIO at write %d", err, w)
			}
			// The disk recovers; the retried checkpoint must go through and
			// leave nothing behind from the failed attempt.
			db.fp.FailWriteAfter(-1, nil)
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("retried checkpoint: %v", err)
			}
			if n := db.wlog.Len(); n != 0 {
				t.Fatalf("WAL holds %d records after successful checkpoint, want 0", n)
			}
			db.crash()

			re := openDurable(t, dir, 256)
			defer re.crash()
			compareDumps(t, fmt.Sprintf("EIO at write %d", w), want, dumpDB(t, re.DB))
			verifyIndexConsistency(t, re.DB)
		})
	}
}

// TestWorkloadEIOAtEveryWrite arms a sticky EIO before the Nth page write of
// the whole workload (a tiny pool makes evictions write mid-statement) and
// lets the workload run to completion, tolerating statement failures. The
// guarantee under test: after a crash and reopen, the database holds
// EXACTLY the effects of the statements that reported success — failed
// statements rolled back completely, no silent wrong results anywhere.
func TestWorkloadEIOAtEveryWrite(t *testing.T) {
	// crashScript alone fits in the pool; bulk inserts of wide rows push the
	// heap past it so evictions write mid-statement.
	steps := crashScript()
	for i := 0; i < 60; i++ {
		sql := fmt.Sprintf(`INSERT INTO Gene VALUES ('JWX%03d', '%s', %d)`,
			i, strings.Repeat("x", 300), 1000+i)
		steps = append(steps, crashStep{label: sql, sql: sql})
	}
	const pool = 3

	// Golden run with the same pool size to count the eviction writes the
	// workload itself performs.
	goldenDir := t.TempDir()
	golden := openFaultDurable(t, goldenDir, pool)
	if _, err := runScript(golden.DB, steps); err != nil {
		t.Fatal(err)
	}
	writes := golden.fp.WriteCount()
	golden.crash()
	if writes == 0 {
		t.Fatal("workload performed no page writes at this pool size; harness is vacuous")
	}

	// Cap the matrix: early write numbers bite mid-workload (the interesting
	// cases); past the workload's own writes nothing fires. Stride so the
	// matrix stays fast while still covering the whole range.
	stride := 1
	if writes > 40 {
		stride = writes/40 + 1
	}

	for w := 0; w < writes; w += stride {
		w := w
		t.Run(fmt.Sprintf("fail-write-%03d", w), func(t *testing.T) {
			dir := t.TempDir()
			db := openFaultDurable(t, dir, pool)
			db.fp.FailWriteAfter(w, pager.ErrInjectedEIO)

			// Run every step, recording which ones succeed. A step that
			// fails must fail loudly; its effects must not survive.
			s := db.Session("admin")
			var succeeded []crashStep
			tripped := false
			for _, step := range steps {
				var err error
				if step.sql != "" {
					_, err = s.Exec(step.sql)
				} else {
					err = step.fn(db.DB)
				}
				if err == nil {
					succeeded = append(succeeded, step)
				} else if errors.Is(err, pager.ErrInjectedEIO) {
					tripped = true
				} else if !tripped {
					// Before the fault fires, only the injected error is an
					// acceptable failure. After it fired, cascading logical
					// failures (a step depending on a failed CREATE) are fine.
					t.Fatalf("step %q failed with a non-injected error: %v", step.label, err)
				}
			}
			if !tripped && w < writes {
				// Legitimate: once early statements fail, later ones dirty
				// fewer pages, so the faulted run can perform fewer writes
				// than the golden run and never reach the armed number.
				t.Logf("write %d not reached by the faulted run", w)
			}
			db.crash()

			re := openDurable(t, dir, pool)
			defer re.crash()

			oracle := MustOpen(Options{})
			if _, err := runScript(oracle, succeeded); err != nil {
				t.Fatalf("oracle replay of successful steps: %v", err)
			}
			compareDumps(t, fmt.Sprintf("EIO armed at write %d", w), dumpDB(t, oracle), dumpDB(t, re.DB))
			verifyIndexConsistency(t, re.DB)
		})
	}
}
