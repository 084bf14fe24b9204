package exec

// Tests for multi-statement transactions: commit/rollback semantics,
// savepoints, statement-level atomicity inside a transaction, the
// auto-commit rollback of failed or canceled bare statements (the PR 2
// known gap), transaction misuse, and lock release of abandoned
// transactions.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bdbms/internal/dependency"
	"bdbms/internal/storage"
)

// newLockedSession builds a session the way core wires real databases.
// (Historically this attached the engine-wide statement lock; concurrency
// control now lives in the engine — MVCC snapshots plus per-table latches —
// so there is nothing extra to wire, but the name stays on the many tests
// that exercise transactional behavior through it.)
func newLockedSession(t *testing.T) *Session {
	t.Helper()
	return newSession(t)
}

// sameEngineSession returns a second session over the same engine.
func sameEngineSession(s *Session, user string) *Session {
	return &Session{
		Eng: s.Eng, Ann: s.Ann, Prov: s.Prov, Dep: s.Dep, Auth: s.Auth,
		User: user,
	}
}

func setupAccounts(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE Acct (ID INT NOT NULL PRIMARY KEY, Bal INT)`)
	mustExec(t, s, `INSERT INTO Acct VALUES (1, 100), (2, 100), (3, 100)`)
}

func balances(t *testing.T, s *Session) string {
	t.Helper()
	res := mustExec(t, s, `SELECT ID, Bal FROM Acct ORDER BY ID`)
	var parts []string
	for _, row := range res.Rows {
		parts = append(parts, fmt.Sprintf("%s=%s", row.Values[0], row.Values[1]))
	}
	return strings.Join(parts, ",")
}

func TestTxCommitMakesWritesVisible(t *testing.T) {
	s := newLockedSession(t)
	setupAccounts(t, s)

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE Acct SET Bal = Bal - 30 WHERE ID = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE Acct SET Bal = Bal + 30 WHERE ID = 2`); err != nil {
		t.Fatal(err)
	}
	// The transaction reads its own writes.
	res, err := tx.Exec(`SELECT Bal FROM Acct WHERE ID = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].Values[0].Int(); got != 70 {
		t.Fatalf("tx sees Bal=%d, want its own write 70", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := balances(t, s), "1=70,2=130,3=100"; got != want {
		t.Fatalf("after commit: %s, want %s", got, want)
	}
}

func TestTxRollbackRevertsEverything(t *testing.T) {
	s := newLockedSession(t)
	setupAccounts(t, s)
	mustExec(t, s, `CREATE ANNOTATION TABLE Notes ON Acct`)
	before := balances(t, s)

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		`INSERT INTO Acct VALUES (4, 400)`,
		`UPDATE Acct SET Bal = 0 WHERE ID = 2`,
		`DELETE FROM Acct WHERE ID = 3`,
		`ADD ANNOTATION TO Acct.Notes VALUE 'doomed' ON (SELECT * FROM Acct WHERE ID = 1)`,
		`CREATE TABLE Temp (X INT)`,
		`INSERT INTO Temp VALUES (1)`,
		`CREATE INDEX ON Acct (Bal)`,
	}
	for _, stmt := range stmts {
		if _, err := tx.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := balances(t, s); got != before {
		t.Fatalf("after rollback: %s, want %s", got, before)
	}
	if s.Eng.HasTable("Temp") {
		t.Error("rolled-back CREATE TABLE survived")
	}
	tbl, err := s.Eng.Table("Acct")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.HasIndex("Bal") {
		t.Error("rolled-back CREATE INDEX survived")
	}
	if n := s.Ann.Count("Acct"); n != 0 {
		t.Errorf("rolled-back annotation survived (%d)", n)
	}
}

func TestTxSavepointRollbackKeepsEarlierWork(t *testing.T) {
	s := newLockedSession(t)
	setupAccounts(t, s)

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mustTxExec := func(sql string) {
		t.Helper()
		if _, err := tx.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustTxExec(`UPDATE Acct SET Bal = 50 WHERE ID = 1`)
	mustTxExec(`SAVEPOINT sp1`)
	mustTxExec(`UPDATE Acct SET Bal = 999 WHERE ID = 2`)
	mustTxExec(`SAVEPOINT sp2`)
	mustTxExec(`DELETE FROM Acct WHERE ID = 3`)
	mustTxExec(`ROLLBACK TO SAVEPOINT sp1`)
	// sp2 was released by the rollback past it.
	if _, err := tx.Exec(`ROLLBACK TO SAVEPOINT sp2`); !errors.Is(err, ErrNoSavepoint) {
		t.Fatalf("rollback to released savepoint = %v, want ErrNoSavepoint", err)
	}
	// sp1 survives and can be rolled back to again.
	mustTxExec(`UPDATE Acct SET Bal = 777 WHERE ID = 2`)
	mustTxExec(`ROLLBACK TO SAVEPOINT sp1`)
	mustTxExec(`UPDATE Acct SET Bal = 60 WHERE ID = 3`)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := balances(t, s), "1=50,2=100,3=60"; got != want {
		t.Fatalf("after savepoint dance: %s, want %s", got, want)
	}
}

func TestTxFailedStatementRollsBackStatementOnly(t *testing.T) {
	s := newLockedSession(t)
	setupAccounts(t, s)

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE Acct SET Bal = 42 WHERE ID = 1`); err != nil {
		t.Fatal(err)
	}
	// The second row of the multi-row INSERT violates the primary key: the
	// whole statement must roll back (row 9 included), the transaction must
	// survive.
	if _, err := tx.Exec(`INSERT INTO Acct VALUES (9, 900), (1, 0)`); !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("dup-pk insert = %v, want ErrDuplicateKey", err)
	}
	if _, err := tx.Exec(`UPDATE Acct SET Bal = 43 WHERE ID = 2`); err != nil {
		t.Fatalf("transaction did not survive failed statement: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := balances(t, s), "1=42,2=43,3=100"; got != want {
		t.Fatalf("after commit: %s, want %s", got, want)
	}
}

func TestAutoCommitStatementRollsBackOnError(t *testing.T) {
	// The PR 2 known gap, reproduced: a multi-row INSERT failing on a later
	// row used to leave the earlier rows applied ("writes run to
	// completion"). Now the implicit transaction rolls the statement back.
	s := newLockedSession(t)
	setupAccounts(t, s)
	before := balances(t, s)

	if _, err := s.Exec(`INSERT INTO Acct VALUES (10, 1), (11, 2), (1, 0)`); !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("dup-pk insert = %v, want ErrDuplicateKey", err)
	}
	if got := balances(t, s); got != before {
		t.Fatalf("half-applied INSERT survived: %s, want %s", got, before)
	}
	// Same for UPDATE: the first matching row rewrites cleanly (ID 1 -> -1),
	// the second divides by zero, yielding NULL for the NOT NULL primary
	// key — the statement errors after a row was already written.
	if _, err := s.Exec(`UPDATE Acct SET ID = ID / (ID - 2) WHERE ID < 3`); err == nil {
		t.Fatal("NOT NULL violating UPDATE succeeded, want error")
	}
	if got := balances(t, s); got != before {
		t.Fatalf("half-applied UPDATE survived: %s, want %s", got, before)
	}
}

// countdownCtx is a context whose Err() starts reporting Canceled after a
// fixed number of polls — a deterministic stand-in for "the caller cancels
// while the statement is writing".
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestAutoCommitStatementRollsBackOnCancel(t *testing.T) {
	s := newLockedSession(t)
	mustExec(t, s, `CREATE TABLE Big (N INT NOT NULL PRIMARY KEY, T TEXT)`)
	var values []string
	for i := 0; i < 100; i++ {
		values = append(values, fmt.Sprintf("(%d, 'row%d')", i, i))
	}
	mustExec(t, s, `INSERT INTO Big VALUES `+strings.Join(values, ", "))

	// Cancel mid-write: the UPDATE's write loop polls the context per row.
	ctx := &countdownCtx{Context: context.Background(), after: 25}
	rows, err := s.Query(ctx, `UPDATE Big SET T = 'changed' WHERE N >= 0`)
	if rows != nil {
		rows.Close()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled UPDATE = %v, want context.Canceled", err)
	}
	res := mustExec(t, s, `SELECT N FROM Big WHERE T = 'changed'`)
	if got := len(res.Rows); got != 0 {
		t.Fatalf("%d rows kept the canceled UPDATE's write, want 0 (rolled back)", got)
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM Big`)
	if got := res.Rows[0].Values[0].Int(); got != 100 {
		t.Fatalf("table holds %d rows after rollback, want 100", got)
	}
}

func TestAutoCommitSurvivesTransientCommitFailure(t *testing.T) {
	// Regression: when the commit marker of an auto-commit statement fails
	// to append, the frame must be closed as aborted — a transient WAL
	// failure must not wedge every later statement on "frame already open".
	s := newLockedSession(t)
	mustExec(t, s, `CREATE TABLE T (N INT NOT NULL PRIMARY KEY)`)
	log := s.Eng.WAL()
	// Allow exactly TxBegin + the row record; the TxCommit append fails.
	log.FailAfter(2)
	if _, err := s.Exec(`INSERT INTO T VALUES (1)`); err == nil {
		t.Fatal("INSERT with failing commit marker succeeded")
	}
	log.FailAfter(-1) // the "disk" recovers
	if _, err := s.Exec(`INSERT INTO T VALUES (2)`); err != nil {
		t.Fatalf("statement after transient commit failure: %v", err)
	}
	res := mustExec(t, s, `SELECT N FROM T`)
	if len(res.Rows) != 1 || res.Rows[0].Values[0].Int() != 2 {
		t.Fatalf("table holds %v, want only the second insert", res.Rows)
	}
}

func TestTxMisuse(t *testing.T) {
	s := newLockedSession(t)
	setupAccounts(t, s)

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Nested Begin on the same session.
	if _, err := s.Begin(context.Background()); !errors.Is(err, ErrTxOpen) {
		t.Fatalf("nested Begin = %v, want ErrTxOpen", err)
	}
	if _, err := s.Exec(`BEGIN`); !errors.Is(err, ErrTxOpen) {
		t.Fatalf("nested BEGIN statement = %v, want ErrTxOpen", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Commit after Rollback.
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Commit after Rollback = %v, want ErrTxDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double Rollback = %v, want ErrTxDone", err)
	}
	if _, err := tx.Exec(`SELECT * FROM Acct`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Exec on ended tx = %v, want ErrTxDone", err)
	}
	// Transaction control without a transaction.
	if _, err := s.Exec(`COMMIT`); !errors.Is(err, ErrNoTx) {
		t.Fatalf("bare COMMIT = %v, want ErrNoTx", err)
	}
	if _, err := s.Exec(`ROLLBACK`); !errors.Is(err, ErrNoTx) {
		t.Fatalf("bare ROLLBACK = %v, want ErrNoTx", err)
	}
	if _, err := s.Exec(`SAVEPOINT sp`); !errors.Is(err, ErrNoTx) {
		t.Fatalf("bare SAVEPOINT = %v, want ErrNoTx", err)
	}
	// Savepoint errors inside a live transaction.
	tx2, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Rollback()
	if _, err := tx2.Exec(`ROLLBACK TO SAVEPOINT nope`); !errors.Is(err, ErrNoSavepoint) {
		t.Fatalf("rollback to unknown savepoint = %v, want ErrNoSavepoint", err)
	}
}

func TestTxCursorInvalidatedWhenTxEnds(t *testing.T) {
	s := newLockedSession(t)
	setupAccounts(t, s)

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query(context.Background(), `SELECT ID, Bal FROM Acct`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first Next failed: %v", rows.Err())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The cursor outlived its transaction: it must die, not read unlocked.
	if rows.Next() {
		t.Fatal("Next succeeded on a cursor whose transaction ended")
	}
	if !errors.Is(rows.Err(), ErrTxDone) {
		t.Fatalf("cursor Err = %v, want ErrTxDone", rows.Err())
	}
}

func TestAbandonedTxReleasesLockOnCancel(t *testing.T) {
	s := newLockedSession(t)
	setupAccounts(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := s.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE Acct SET Bal = 0 WHERE ID = 1`); err != nil {
		t.Fatal(err)
	}
	// Abandon the transaction (no Commit/Rollback) and cancel its context:
	// the watcher must roll it back and release every latch it holds, or a
	// later writer on the table blocks forever. (Snapshot readers would not
	// even notice — they never see the uncommitted write — so the probe
	// below is a writer.) Wait for the watcher before asserting.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for s.InTx() {
		if time.Now().After(deadline) {
			t.Fatal("abandoned transaction was not auto-rolled back after 5s")
		}
		time.Sleep(time.Millisecond)
	}

	other := sameEngineSession(s, "bob")
	done := make(chan string, 1)
	go func() {
		if _, err := other.Exec(`UPDATE Acct SET Bal = Bal + 0 WHERE ID = 1`); err != nil {
			done <- err.Error()
			return
		}
		res, err := other.Exec(`SELECT Bal FROM Acct WHERE ID = 1`)
		if err != nil {
			done <- err.Error()
			return
		}
		done <- res.Rows[0].Values[0].String()
	}()
	select {
	case got := <-done:
		// The abandoned transaction's write must have been rolled back.
		if got != "100" {
			t.Fatalf("writer+reader saw Bal=%s, want the rolled-back 100", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned transaction still holds its table latch after 5s")
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Commit after auto-rollback = %v, want ErrTxDone", err)
	}
}

func TestTxCursorRacesWatcherRollback(t *testing.T) {
	// -race regression: the context watcher's auto-rollback rewrites heap
	// pages and B-trees; an in-flight Next of the transaction's own cursor
	// must serialize against it (each pull holds the transaction mutex),
	// not read torn structures.
	s := newLockedSession(t)
	mustExec(t, s, `CREATE TABLE Big (N INT NOT NULL PRIMARY KEY, T TEXT)`)
	var values []string
	for i := 0; i < 500; i++ {
		values = append(values, fmt.Sprintf("(%d, 'x')", i))
	}
	mustExec(t, s, `INSERT INTO Big VALUES `+strings.Join(values, ", "))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tx, err := s.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE Big SET T = 'dirty' WHERE N < 250`); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query(context.Background(), `SELECT N, T FROM Big`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if n == 10 {
			cancel() // the watcher rolls the transaction back mid-iteration
		}
		n++
	}
	if err := rows.Err(); err != nil && !errors.Is(err, ErrTxDone) {
		t.Fatalf("cursor Err = %v, want nil or ErrTxDone", err)
	}
	// Whatever the interleaving, the rollback must have completed cleanly.
	if err := tx.Rollback(); err != nil && !errors.Is(err, ErrTxDone) {
		t.Fatal(err)
	}
	res := mustExec(t, s, `SELECT N FROM Big WHERE T = 'dirty'`)
	if len(res.Rows) != 0 {
		t.Fatalf("%d dirty rows survived the rollback", len(res.Rows))
	}
}

func TestTxRollsBackDependencyMarksAndApprovalOps(t *testing.T) {
	s := newLockedSession(t)
	mustExec(t, s, `CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GLen INT)`)
	mustExec(t, s, `CREATE TABLE Protein (PID TEXT NOT NULL PRIMARY KEY, GID TEXT, PFunc TEXT)`)
	mustExec(t, s, `INSERT INTO Gene VALUES ('g1', 10)`)
	mustExec(t, s, `INSERT INTO Protein VALUES ('p1', 'g1', 'f')`)
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Gene", Column: "GLen"}},
		Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PFunc"}},
		Proc:    dependency.Procedure{Name: "len-to-func", Executable: false},
		Link:    &dependency.Link{SourceColumn: "GID", TargetColumn: "GID"},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `START CONTENT APPROVAL ON Gene APPROVED BY alice`)

	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE Gene SET GLen = 99 WHERE GID = 'g1'`); err != nil {
		t.Fatal(err)
	}
	if !s.Dep.IsOutdated("Protein", 1, "PFunc") {
		t.Fatal("dependency cascade did not mark inside tx")
	}
	if n := len(s.Auth.Pending("Gene")); n != 1 {
		t.Fatalf("%d pending ops inside tx, want 1", n)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if s.Dep.IsOutdated("Protein", 1, "PFunc") {
		t.Error("rolled-back transaction left an outdated mark")
	}
	if n := len(s.Auth.Pending("Gene")); n != 0 {
		t.Errorf("rolled-back transaction left %d pending approval ops", n)
	}
	res := mustExec(t, s, `SELECT GLen FROM Gene WHERE GID = 'g1'`)
	if got := res.Rows[0].Values[0].Int(); got != 10 {
		t.Errorf("GLen = %d after rollback, want 10", got)
	}
}

func TestTxSQLScriptDrivesSessionState(t *testing.T) {
	// The CLI path: BEGIN/COMMIT/ROLLBACK arrive as plain statements on a
	// session. ExecAll runs them with the session's transaction state.
	s := newLockedSession(t)
	setupAccounts(t, s)
	if _, err := s.ExecAll(`BEGIN; UPDATE Acct SET Bal = 1 WHERE ID = 1; ROLLBACK;`); err != nil {
		t.Fatal(err)
	}
	if got, want := balances(t, s), "1=100,2=100,3=100"; got != want {
		t.Fatalf("after scripted rollback: %s, want %s", got, want)
	}
	if _, err := s.ExecAll(`BEGIN; UPDATE Acct SET Bal = 1 WHERE ID = 1; COMMIT;`); err != nil {
		t.Fatal(err)
	}
	if got, want := balances(t, s), "1=1,2=100,3=100"; got != want {
		t.Fatalf("after scripted commit: %s, want %s", got, want)
	}
	// A session abandoned mid-transaction is cleaned up by CloseTx.
	if _, err := s.ExecAll(`BEGIN; UPDATE Acct SET Bal = 2 WHERE ID = 1;`); err != nil {
		t.Fatal(err)
	}
	if !s.InTx() {
		t.Fatal("InTx = false with a scripted transaction open")
	}
	if err := s.CloseTx(); err != nil {
		t.Fatal(err)
	}
	if s.InTx() {
		t.Fatal("InTx = true after CloseTx")
	}
	if got, want := balances(t, s), "1=1,2=100,3=100"; got != want {
		t.Fatalf("after CloseTx: %s, want %s", got, want)
	}
	if err := s.CloseTx(); err != nil {
		t.Fatalf("CloseTx without tx = %v, want nil", err)
	}
}

// TestReadOnlyTxLeavesOtherFrameAlone: a transaction that only read never
// arms a WAL frame, so ending it must not touch the frame another
// transaction has open — a TxCommit there would commit that transaction's
// records on recovery, and close the frame its own rollback reads back.
func TestReadOnlyTxLeavesOtherFrameAlone(t *testing.T) {
	for _, end := range []string{"commit", "rollback"} {
		t.Run(end, func(t *testing.T) {
			s := newLockedSession(t)
			setupAccounts(t, s)
			mustExec(t, s, `CREATE TABLE Other (X INT)`)
			before := balances(t, s)
			log := s.Eng.WAL()
			start := log.Len()

			writer, err := s.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Exec(`UPDATE Acct SET Bal = 0 WHERE ID = 1`); err != nil {
				t.Fatal(err)
			}
			reader, err := sameEngineSession(s, "reader").Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reader.Exec(`SELECT X FROM Other`); err != nil {
				t.Fatal(err)
			}
			if end == "commit" {
				err = reader.Commit()
			} else {
				err = reader.Rollback()
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Exec(`UPDATE Acct SET Bal = 0 WHERE ID = 2`); err != nil {
				t.Fatal(err)
			}
			if err := writer.Rollback(); err != nil {
				t.Fatal(err)
			}
			if got := balances(t, s); got != before {
				t.Fatalf("after the writer's rollback: %s, want %s", got, before)
			}
			var kinds []string
			for _, rec := range log.Records()[start:] {
				kinds = append(kinds, rec.Kind.String())
			}
			if got, want := strings.Join(kinds, " "), "TX-BEGIN UPDATE UPDATE TX-ABORT"; got != want {
				t.Fatalf("the writer's frame logged %s, want %s", got, want)
			}
		})
	}
}
