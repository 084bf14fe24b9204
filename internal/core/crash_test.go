package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bdbms/internal/annotation"
	"bdbms/internal/exec"
	"bdbms/internal/pager"
	"bdbms/internal/provenance"
	"bdbms/internal/wal"
)

// crashStep is one unit of the recorded crash workload: either an A-SQL
// statement or a Go-surface mutation.
type crashStep struct {
	label string
	sql   string
	fn    func(db *DB) error
}

// crashScript is the recorded workload of the crash-injection harness. Every
// step appends at least one WAL record, so statement boundaries and record
// boundaries can be cross-indexed.
func crashScript() []crashStep {
	var steps []crashStep
	steps = append(steps, crashStep{label: "register agents", fn: func(db *DB) error {
		db.Provenance().RegisterAgent("loader")
		db.Provenance().RegisterAgent("blast-tool")
		db.Provenance().UnregisterAgent("blast-tool")
		return nil
	}})
	stmts := workloadStatements()
	for _, s := range stmts[:5] {
		steps = append(steps, crashStep{label: s, sql: s})
	}
	steps = append(steps, crashStep{label: "add dependency rule", fn: func(db *DB) error {
		_, err := db.Dependencies().AddRule(depRule())
		return err
	}})
	for _, s := range stmts[5:] {
		steps = append(steps, crashStep{label: s, sql: s})
	}
	steps = append(steps, crashStep{label: "attach provenance", fn: func(db *DB) error {
		_, err := db.Provenance().Attach("loader", "Gene", provenance.Record{
			Source: "RegulonDB", Action: provenance.ActionCopy,
		}, []annotation.Region{annotation.CellRegion("Gene", 1, 2)})
		return err
	}})
	return steps
}

// runScript executes the script until a step fails (the simulated crash) and
// returns how many steps completed without error.
func runScript(db *DB, steps []crashStep) (completed int, firstErr error) {
	s := db.Session("admin")
	for i, step := range steps {
		var err error
		if step.sql != "" {
			_, err = s.Exec(step.sql)
		} else {
			err = step.fn(db)
		}
		if err != nil {
			return i, err
		}
	}
	return len(steps), nil
}

// expectedPrefix computes, from the golden record sequence, the record
// count a crash after n appends recovers to: an unclosed transaction frame
// at the tail is rolled back and truncated, everything else survives.
func expectedPrefix(golden []wal.Record, n int) int {
	open := -1
	for i := 0; i < n; i++ {
		switch golden[i].Kind {
		case wal.KindTxBegin:
			open = i
		case wal.KindTxCommit, wal.KindTxAbort:
			open = -1
		}
	}
	if open >= 0 {
		return open
	}
	return n
}

// bareDataIndexes marks the records that commit individually — data records
// appended outside any transaction frame (Go-surface manager calls). A
// crash between two of them leaves a state that is not any step boundary,
// so the dump comparison skips such windows.
func bareDataIndexes(golden []wal.Record) []bool {
	bare := make([]bool, len(golden))
	inFrame := false
	for i, rec := range golden {
		switch rec.Kind {
		case wal.KindTxBegin:
			inFrame = true
		case wal.KindTxCommit, wal.KindTxAbort:
			inFrame = false
		default:
			bare[i] = !inFrame && !rec.Kind.IsTxControl()
		}
	}
	return bare
}

// TestCrashInjectionEveryWALBoundary is the crash-injection harness of the
// issue: for every N in the recorded workload, the WAL "kills the process"
// after the Nth append; the reopened database must hold exactly the
// committed prefix. Statements are transactions now, so the assertion is
// all-or-nothing: at EVERY crash point inside a statement's frame the
// recovered state must equal the last completed step's oracle state (not
// just be internally consistent), and the unclosed frame must be gone from
// the recovered log. Only crash points between the bare records of
// Go-surface steps (agent registrations commit individually) skip the dump
// comparison.
func TestCrashInjectionEveryWALBoundary(t *testing.T) {
	steps := crashScript()

	// Golden run on a memory database: record the WAL record count and a
	// state snapshot after every step.
	golden := MustOpen(Options{})
	boundaries := make([]int, 0, len(steps)+1) // record count after k steps
	dumps := make([]*dbDump, 0, len(steps)+1)
	boundaries = append(boundaries, 0)
	dumps = append(dumps, dumpDB(t, golden))
	if _, err := runScriptStepwise(t, golden, steps, &boundaries, &dumps); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	total := boundaries[len(boundaries)-1]
	if total < len(steps) {
		t.Fatalf("workload appended %d records for %d steps; every step must log", total, len(steps))
	}
	goldenRecs := golden.Storage().WAL().Records()
	if len(goldenRecs) != total {
		t.Fatalf("golden WAL holds %d records, boundaries say %d", len(goldenRecs), total)
	}
	bare := bareDataIndexes(goldenRecs)

	for n := 0; n <= total; n++ {
		n := n
		t.Run(fmt.Sprintf("fail-after-%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, 8)
			db.wlog.FailAfter(n)
			_, err := runScript(db.DB, steps)
			if n < total && err == nil {
				t.Fatalf("fault point %d never tripped", n)
			}
			if n == total && err != nil {
				t.Fatalf("full run failed: %v", err)
			}
			db.crash()

			re := openDurable(t, dir, 8)
			defer re.crash()
			if got, want := re.wlog.Len(), expectedPrefix(goldenRecs, n); got != want {
				t.Fatalf("recovered WAL holds %d records, want the committed prefix %d (crash after %d)", got, want, n)
			}
			verifyIndexConsistency(t, re.DB)

			// All-or-nothing: unless the crash window contains individually
			// committed bare records, the recovered state must equal the
			// oracle after the last completed step.
			k := 0
			for j, b := range boundaries {
				if b <= n {
					k = j
				}
			}
			comparable := true
			for i := boundaries[k]; i < n; i++ {
				if bare[i] {
					comparable = false
					break
				}
			}
			if comparable {
				compareDumps(t, fmt.Sprintf("prefix of %d steps (crash after %d)", k, n), dumps[k], dumpDB(t, re.DB))
			}
		})
	}
}

// runScriptStepwise is runScript, additionally recording the WAL length and
// a state dump after every completed step.
func runScriptStepwise(t *testing.T, db *DB, steps []crashStep, boundaries *[]int, dumps *[]*dbDump) (int, error) {
	s := db.Session("admin")
	for i, step := range steps {
		var err error
		if step.sql != "" {
			_, err = s.Exec(step.sql)
		} else {
			err = step.fn(db)
		}
		if err != nil {
			return i, fmt.Errorf("step %q: %w", step.label, err)
		}
		*boundaries = append(*boundaries, db.Storage().WAL().Len())
		*dumps = append(*dumps, dumpDB(t, db))
	}
	return len(steps), nil
}

// --- crash injection inside open transactions --------------------------------

// txStep is one atomic unit of the transactional crash workload: either a
// bare auto-commit statement or a whole BEGIN..COMMIT/ROLLBACK transaction.
// Two pseudo-statements drive the adversarial parts: "\flush" forces every
// dirty page to disk mid-transaction (a deterministic stand-in for buffer
// evictions, so uncommitted row versions ARE on disk when the crash hits),
// and a "\fail " prefix marks a statement that must error (exercising the
// mid-transaction statement rollback and its TxStmtAbort marker).
type txStep struct {
	label string
	stmts []string
}

// txScript builds the transactional workload: committed transactions,
// savepoint rollbacks inside a committed transaction, a rolled-back
// transaction, a failed statement inside a committed transaction, DDL in a
// rolled-back transaction, and finally a transaction left open at the crash.
func txScript() []txStep {
	return []txStep{
		// Setup: one auto-commit statement per step, so every step boundary
		// is a frame boundary and the all-or-nothing assertion can run at
		// every single crash point.
		{label: "create acct", stmts: []string{`CREATE TABLE Acct (ID INT NOT NULL PRIMARY KEY, Bal INT, Note TEXT)`}},
		{label: "index acct", stmts: []string{`CREATE INDEX ON Acct (Bal)`}},
		{label: "seed acct", stmts: []string{`INSERT INTO Acct VALUES (1, 100, 'a'), (2, 100, 'b'), (3, 100, 'c'), (4, 100, 'd')`}},
		{label: "create audit", stmts: []string{`CREATE TABLE Audit (N INT, What TEXT)`}},
		{label: "committed transfer", stmts: []string{
			`BEGIN`,
			`UPDATE Acct SET Bal = Bal - 10 WHERE ID = 1`,
			`UPDATE Acct SET Bal = Bal + 10 WHERE ID = 2`,
			`INSERT INTO Audit VALUES (1, 'transfer')`,
			`COMMIT`,
		}},
		{label: "committed with savepoint rollback", stmts: []string{
			`BEGIN`,
			`INSERT INTO Acct VALUES (7, 70, 'g')`,
			`SAVEPOINT s1`,
			`UPDATE Acct SET Note = 'oops' WHERE ID < 4`,
			`DELETE FROM Acct WHERE ID = 7`,
			`\flush`,
			`ROLLBACK TO SAVEPOINT s1`,
			`UPDATE Acct SET Bal = 77 WHERE ID = 7`,
			`COMMIT`,
		}},
		{label: "rolled back after flush", stmts: []string{
			`BEGIN`,
			`DELETE FROM Acct WHERE ID > 2`,
			`UPDATE Acct SET Bal = 0 WHERE ID = 1`,
			`\flush`,
			`INSERT INTO Audit VALUES (2, 'doomed')`,
			`ROLLBACK`,
		}},
		{label: "committed despite failed statement", stmts: []string{
			`BEGIN`,
			`INSERT INTO Acct VALUES (8, 80, 'h')`,
			`\fail INSERT INTO Acct VALUES (9, 90, 'i'), (1, 0, 'dup pk')`,
			`UPDATE Acct SET Bal = 88 WHERE ID = 8`,
			`COMMIT`,
		}},
		{label: "ddl rolled back", stmts: []string{
			`BEGIN`,
			`CREATE TABLE Temp (X INT)`,
			`INSERT INTO Temp VALUES (1), (2)`,
			`\flush`,
			`ROLLBACK`,
		}},
		{label: "final bare statement", stmts: []string{
			`UPDATE Acct SET Note = 'done' WHERE ID = 1`,
		}},
		{label: "uncommitted tail", stmts: []string{
			`BEGIN`,
			`UPDATE Acct SET Bal = 0 WHERE ID < 100`,
			`DELETE FROM Acct WHERE ID = 8`,
			`\flush`,
			`INSERT INTO Audit VALUES (9, 'never committed')`,
			// no COMMIT: the crash (or the end of the run) hits here.
		}},
	}
}

// runTxScript executes the transactional workload, honoring the pseudo-
// statements, until a statement fails unexpectedly (the injected crash).
func runTxScript(db *DB, steps []txStep) error {
	s := db.Session("admin")
	for _, step := range steps {
		for _, stmt := range step.stmts {
			switch {
			case stmt == `\flush`:
				if err := db.eng.FlushAll(); err != nil {
					return fmt.Errorf("step %q: flush: %w", step.label, err)
				}
			case strings.HasPrefix(stmt, `\fail `):
				if _, err := s.Exec(strings.TrimPrefix(stmt, `\fail `)); err == nil {
					return fmt.Errorf("step %q: statement %q succeeded, want error", step.label, stmt)
				} else if errors.Is(err, wal.ErrInjectedFailure) || errors.Is(err, exec.ErrTxDone) {
					// The injected crash, not the expected logical error.
					return err
				}
			default:
				if _, err := s.Exec(stmt); err != nil {
					return fmt.Errorf("step %q: %q: %w", step.label, stmt, err)
				}
			}
		}
	}
	return nil
}

// TestCrashInjectionInsideTransactions kills the WAL at every record
// boundary inside the transactional workload — mid-frame, on savepoint and
// rollback markers, on the commit record itself — with dirty pages of
// uncommitted transactions deliberately flushed to disk. After reopening,
// the database must hold exactly the effects of the transactions whose
// COMMIT made it into the log prefix, nothing of any other (all-or-nothing),
// matching a step-indexed oracle that only ran committed steps.
func TestCrashInjectionInsideTransactions(t *testing.T) {
	steps := txScript()

	// Golden run on a memory database: a dump at every step boundary plus
	// the full record sequence (the uncommitted tail included).
	golden := MustOpen(Options{})
	boundaries := []int{0}
	dumps := []*dbDump{dumpDB(t, golden)}
	for _, step := range steps[:len(steps)-1] {
		if err := runTxScript(golden, []txStep{step}); err != nil {
			t.Fatalf("golden step %q: %v", step.label, err)
		}
		boundaries = append(boundaries, golden.Storage().WAL().Len())
		dumps = append(dumps, dumpDB(t, golden))
	}
	if err := runTxScript(golden, steps[len(steps)-1:]); err != nil {
		t.Fatalf("golden tail: %v", err)
	}
	goldenRecs := golden.Storage().WAL().Records()
	total := len(goldenRecs)
	if total <= boundaries[len(boundaries)-1] {
		t.Fatal("uncommitted tail appended no records; harness is vacuous")
	}

	sawMidFrame := false
	for n := 0; n <= total; n++ {
		n := n
		t.Run(fmt.Sprintf("fail-after-%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, 8)
			db.wlog.FailAfter(n)
			err := runTxScript(db.DB, steps)
			if n < total && err == nil {
				t.Fatalf("fault point %d never tripped", n)
			}
			if n == total && err != nil {
				t.Fatalf("full run failed: %v", err)
			}
			// Abandoned transaction + crash: drop everything on the floor.
			db.crash()

			re := openDurable(t, dir, 8)
			defer re.crash()
			if got, want := re.wlog.Len(), expectedPrefix(goldenRecs, n); got != want {
				t.Fatalf("recovered WAL holds %d records, want committed prefix %d (crash after %d)", got, want, n)
			}
			verifyIndexConsistency(t, re.DB)

			// Every record of this workload is framed, so EVERY crash point
			// must recover to the last committed step boundary exactly.
			k := 0
			for j, b := range boundaries {
				if b <= n {
					k = j
				}
			}
			if n != boundaries[k] {
				sawMidFrame = true
			}
			compareDumps(t, fmt.Sprintf("committed prefix of %d tx steps (crash after %d)", k, n), dumps[k], dumpDB(t, re.DB))

			// Crash the recovered database immediately — no checkpoint, no
			// further writes — and open a THIRD time. Recovery's rollback of
			// the unclosed frame must itself be durable (pages flushed
			// before the frame is truncated); if it only lived in the
			// buffer pool, the rolled-back rows would resurrect here.
			re.crash()
			re2 := openDurable(t, dir, 8)
			defer re2.crash()
			compareDumps(t, fmt.Sprintf("after second crash (crash after %d)", n), dumps[k], dumpDB(t, re2.DB))
			verifyIndexConsistency(t, re2.DB)
		})
	}
	if !sawMidFrame {
		t.Error("no crash point landed inside an open frame; harness is vacuous")
	}
}

// TestRecoveryImplicitAbortOnLostAbortMarker covers the lost-abort-marker
// window: a statement's commit AND abort appends both fail (transient WAL
// error), the log recovers, a later statement commits normally, then the
// process crashes. The WAL holds an unclosed frame followed by another
// frame; replay must treat the second TxBegin as an implicit abort of the
// first — undoing any of its effects — instead of rejecting the log.
func TestRecoveryImplicitAbortOnLostAbortMarker(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, 8)
	s := db.Session("admin")
	if _, err := s.Exec(`CREATE TABLE T (N INT NOT NULL PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	// TxBegin + the row record append, then the commit marker fails — and so
	// does the abort marker.
	db.wlog.FailAfter(2)
	if _, err := s.Exec(`INSERT INTO T VALUES (1)`); err == nil {
		t.Fatal("INSERT with failing commit marker succeeded")
	}
	db.wlog.FailAfter(-1)
	if _, err := s.Exec(`INSERT INTO T VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	db.crash()

	re, err := tryOpenDurable(dir, 8)
	if err != nil {
		t.Fatalf("lost abort marker bricked recovery: %v", err)
	}
	defer re.crash()
	res, err := re.Exec(`SELECT N FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0].Int() != 2 {
		t.Fatalf("recovered rows %v, want only the committed second insert", res.Rows)
	}
	verifyIndexConsistency(t, re.DB)
}

// faultPager wraps a pager and fails every Write after the first failAfter
// ones, simulating a crash during page flushing.
type faultPager struct {
	pager.Pager
	remaining int
	tripped   bool
}

var errPagerFault = errors.New("pager: injected write failure (simulated crash)")

func (p *faultPager) Write(id pager.PageID, data []byte) error {
	if p.tripped {
		return errPagerFault
	}
	if p.remaining == 0 {
		p.tripped = true
		return errPagerFault
	}
	p.remaining--
	return p.Pager.Write(id, data)
}

// TestCrashInjectionEveryPagerWrite crashes checkpointing at every page
// write: the WAL survives untouched, so no matter where the flush dies the
// reopened database must recover the full committed state, and the
// half-written data file must never poison it.
func TestCrashInjectionEveryPagerWrite(t *testing.T) {
	steps := crashScript()

	// Golden durable run to count the page writes a checkpoint performs.
	goldenDir := t.TempDir()
	golden := openDurable(t, goldenDir, 256)
	if _, err := runScript(golden.DB, steps); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	before := golden.pgr.Stats().Writes
	if err := golden.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writes := int(golden.pgr.Stats().Writes - before)
	golden.crash()
	if writes == 0 {
		t.Fatal("checkpoint performed no page writes; harness is vacuous")
	}

	oracle := MustOpen(Options{})
	if _, err := runScript(oracle, steps); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, oracle)

	for w := 0; w < writes; w++ {
		w := w
		t.Run(fmt.Sprintf("fail-write-%02d", w), func(t *testing.T) {
			dir := t.TempDir()
			dataFile := dir + "/data.db"
			fp, err := pager.OpenFile(dataFile)
			if err != nil {
				t.Fatal(err)
			}
			fpFault := &faultPager{Pager: fp, remaining: w}
			db, err := Open(Options{
				Pager:    fpFault,
				PoolSize: 256, // no evictions: all page writes happen at checkpoint
				DataFile: dataFile,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runScript(db, steps); err != nil {
				t.Fatalf("workload should not touch the pager: %v", err)
			}
			if err := db.Checkpoint(); !errors.Is(err, errPagerFault) {
				t.Fatalf("checkpoint = %v, want injected pager fault", err)
			}
			db.closeFiles()
			fp.Close()

			re := openDurable(t, dir, 256)
			defer re.crash()
			compareDumps(t, "post pager fault", want, dumpDB(t, re.DB))
			verifyIndexConsistency(t, re.DB)
		})
	}
}
