package exec

// Multi-statement ACID transactions.
//
// A transaction serializes against other writers by strict two-phase
// locking over per-table latches: each statement latches the tables it
// touches (reads included) as it runs, and everything is held until
// Commit/Rollback. Its first mutating statement additionally latches the
// shared WAL scope and arms the transaction's WAL frame; from then on no
// other writer runs until the transaction ends. Bare SELECT cursors are NOT
// blocked by any of this — they read MVCC snapshots of the last committed
// state (see internal/storage/mvcc.go), so a transaction's writes are
// invisible to them until COMMIT by construction.
//
// Atomicity has one mechanism: the transaction's WAL frame. Every mutation —
// a row change, DDL, an annotation, an outdated mark, an agent registration,
// an approval operation or decision — appends one record to the frame
// (TxBegin .. TxCommit) before it applies, and that record carries what
// reverting it needs. The open frame is therefore the undo log: ROLLBACK,
// ROLLBACK TO SAVEPOINT, the statement-level rollback of a failed statement
// and the auto-rollback of a canceled context read the frame's records back
// from the log (wal.Log.FrameTail) from a mark on and revert them newest
// first through internal/replay — the same appliers recovery uses to redo
// committed frames and to undo the frames a crash left open. A mark is a
// position in the frame (wal.Log.FrameRecords): a savepoint keeps the one it
// was taken at, a statement the one it started at.
//
// Auto-commit statements run inside an implicit transaction built from the
// same pieces (see execAutoCommit below), so a mid-statement error or
// context cancellation rolls the statement back instead of leaving
// half-applied state — multi-row INSERTs, UPDATE cascades and annotation
// side effects included.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"bdbms/internal/replay"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// Transaction errors.
var (
	// ErrTxDone is returned by operations on a transaction that was already
	// committed or rolled back (including auto-rollback via its context).
	ErrTxDone = errors.New("exec: transaction has already been committed or rolled back")
	// ErrTxOpen is returned by Begin when the session already has an open
	// transaction; bdbms transactions do not nest.
	ErrTxOpen = errors.New("exec: a transaction is already open on this session")
	// ErrNoTx is returned by COMMIT/ROLLBACK/SAVEPOINT statements outside a
	// transaction.
	ErrNoTx = errors.New("exec: no transaction is open")
	// ErrNoSavepoint is returned by ROLLBACK TO SAVEPOINT with an unknown
	// (or already released) savepoint name.
	ErrNoSavepoint = errors.New("exec: no such savepoint")
)

// txSavepoint is one live savepoint: a name plus the frame position
// (wal.Log.FrameRecords) at its creation.
type txSavepoint struct {
	name string
	mark int
}

// Tx is an open multi-statement transaction. It is created by
// Session.Begin (or a BEGIN statement) and ended exactly once by Commit or
// Rollback; canceling the Begin context rolls an abandoned transaction back
// automatically, releasing every latch it holds.
//
// A Tx is safe for sequential use from any goroutine, but its statements
// serialize on an internal mutex; cursors returned by Query must be
// iterated before the transaction ends (ending it invalidates them with
// ErrTxDone).
type Tx struct {
	sess *Session

	mu      sync.Mutex
	done    bool
	endErr  error // why the transaction ended, when not a plain Commit
	saves   []txSavepoint
	cursors []*Rows
	stop    chan struct{} // closed when the transaction ends
	// locker accumulates the per-table latches of every statement, held
	// until the transaction ends (strict two-phase locking).
	locker *storage.Locker
	// mark is the transaction's MVCC write frame, non-nil once the WAL
	// frame is armed (first mutating statement); snapshots taken while it
	// is active keep seeing the pre-transaction row images.
	mark *storage.WriteMark
}

// Begin opens an explicit transaction on the session. Begin itself takes no
// latches and writes nothing: latches accrue per statement, and the WAL
// frame is armed by the first mutating statement — so a transaction that
// only reads neither blocks writers on other tables nor leaves a trace in
// the log. The context governs the whole transaction: once it is canceled
// the transaction is rolled back — even if abandoned — so a forgotten Tx
// cannot hold its latches forever. Transactions do not nest; a second Begin
// fails with ErrTxOpen.
func (s *Session) Begin(ctx context.Context) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tx := &Tx{
		sess:   s,
		stop:   make(chan struct{}),
		locker: s.Eng.Locks().NewLocker(),
	}
	// Publish the reservation with tx.mu held so a statement racing Begin
	// on the same session blocks until the transaction is actually ready.
	tx.mu.Lock()
	s.txMu.Lock()
	if s.tx != nil {
		s.txMu.Unlock()
		tx.mu.Unlock()
		return nil, ErrTxOpen
	}
	s.tx = tx
	s.txMu.Unlock()

	if err := ctx.Err(); err != nil {
		tx.finishLocked(err)
		tx.mu.Unlock()
		return nil, err
	}
	if s.OnTxBegin != nil {
		s.OnTxBegin(tx)
	}
	tx.mu.Unlock()
	if ctx.Done() != nil {
		go tx.watch(ctx)
	}
	return tx, nil
}

// armFrameLocked readies the transaction for its first mutation: it latches
// the shared WAL scope (serializing against every other write frame), opens
// the transaction's WAL frame and registers the MVCC write mark. Idempotent;
// the caller must hold tx.mu.
func (tx *Tx) armFrameLocked() error {
	if tx.mark != nil {
		return nil
	}
	s := tx.sess
	if err := tx.locker.Acquire(storage.ScopeWAL); err != nil {
		return err
	}
	if err := s.Eng.WAL().BeginTx(false); err != nil {
		return err
	}
	tx.mark = s.Eng.BeginWrite()
	return nil
}

// undoFrame reverts the open frame's records from position mark on, newest
// first. The caller must hold the WAL latch (storage.ScopeWAL): the open
// frame is its own.
func (s *Session) undoFrame(mark int) error {
	recs, err := s.Eng.WAL().FrameTail(mark)
	if err != nil {
		return err
	}
	return replay.Target{Eng: s.Eng, Ann: s.Ann, Dep: s.Dep, Prov: s.Prov, Auth: s.Auth}.Undo(recs)
}

// openTx returns the session's open transaction, or nil.
func (s *Session) openTx() *Tx {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	return s.tx
}

// InTx reports whether the session has an open explicit transaction.
func (s *Session) InTx() bool { return s.openTx() != nil }

// CloseTx rolls back the session's open transaction, if any — the cleanup
// hook for shells and pools that hand sessions back without knowing whether
// the user left a transaction open. It is a no-op (nil) otherwise.
func (s *Session) CloseTx() error {
	if tx := s.openTx(); tx != nil {
		err := tx.Rollback()
		if errors.Is(err, ErrTxDone) {
			return nil
		}
		return err
	}
	return nil
}

// watch rolls the transaction back when its context is canceled before
// Commit/Rollback.
func (tx *Tx) watch(ctx context.Context) {
	select {
	case <-tx.stop:
	case <-ctx.Done():
		tx.mu.Lock()
		if !tx.done {
			_ = tx.rollbackLocked(ctx.Err())
		}
		tx.mu.Unlock()
	}
}

// doneError renders the error for operations on an ended transaction.
func (tx *Tx) doneError() error {
	if tx.endErr != nil {
		return fmt.Errorf("%w (rolled back: %v)", ErrTxDone, tx.endErr)
	}
	return ErrTxDone
}

// Commit makes the transaction's effects permanent: the TxCommit record
// closes the WAL frame (recovery will replay the transaction from here on)
// and every latch is released. If the commit record cannot be written the
// transaction is rolled back instead and the error says so — an unclosed
// frame reads as aborted on recovery, so memory and disk agree. A
// transaction that only read has no frame to close. When commit-time fsync
// is enabled (Options.SyncOnCommit)
// the commit additionally waits, after releasing its latches, for the WAL
// to be synced through its last record — concurrent commits share one fsync
// (group commit), and a sync failure is reported to every one of them.
func (tx *Tx) Commit() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return tx.doneError()
	}
	tx.invalidateCursorsLocked()
	if tx.mark == nil {
		// The log's open frame, if any, belongs to another transaction.
		tx.finishLocked(nil)
		return nil
	}
	log := tx.sess.Eng.WAL()
	if err := log.CommitTx(); err != nil {
		cerr := fmt.Errorf("exec: commit: %w", err)
		return errors.Join(cerr, tx.rollbackLocked(cerr))
	}
	lsn := log.LastLSN()
	tx.finishLocked(nil)
	if serr := log.SyncCommitted(lsn); serr != nil {
		return fmt.Errorf("exec: commit sync: %w", serr)
	}
	return nil
}

// Rollback reverts every effect of the transaction and releases its
// latches. Rolling back twice (or after Commit) returns ErrTxDone.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return tx.doneError()
	}
	return tx.rollbackLocked(nil)
}

// rollbackLocked reverts the transaction: open cursors are invalidated, the
// frame's records are undone newest first (under the latches the transaction
// still holds, so nothing observes the intermediate states), the WAL frame
// is closed with TxAbort (best effort — an unclosed frame reads as aborted
// on recovery anyway), and the session/latch state is torn down. A
// transaction that never armed its frame has nothing to revert. The caller
// must hold tx.mu.
func (tx *Tx) rollbackLocked(cause error) error {
	tx.invalidateCursorsLocked()
	var rbErr error
	if tx.mark != nil {
		rbErr = tx.sess.undoFrame(0)
		_ = tx.sess.Eng.WAL().AbortTx()
	}
	if cause == nil {
		cause = rbErr
	}
	tx.finishLocked(cause)
	return rbErr
}

// finishLocked marks the transaction ended and releases everything it
// holds: the MVCC write mark (if the frame was armed), the session's tx
// slot, the watcher, and every latch — the context watcher's
// auto-rollback ends here too, so an abandoned transaction can never strand
// a latch. The caller must hold tx.mu; heap state must be final (committed
// or rolled back) before the write mark is released, because releasing it
// is what lets new snapshots see this transaction's outcome.
func (tx *Tx) finishLocked(cause error) {
	tx.done = true
	tx.endErr = cause
	close(tx.stop)
	s := tx.sess
	if tx.mark != nil {
		s.Eng.EndWrite(tx.mark)
		tx.mark = nil
	}
	s.txMu.Lock()
	if s.tx == tx {
		s.tx = nil
	}
	s.txMu.Unlock()
	tx.locker.ReleaseAll()
	if s.OnTxEnd != nil {
		s.OnTxEnd(tx)
	}
}

// invalidateCursorsLocked kills the streaming cursors opened inside the
// transaction: their next Next reports false with Err() == ErrTxDone.
func (tx *Tx) invalidateCursorsLocked() {
	for _, r := range tx.cursors {
		r.invalidate(ErrTxDone)
	}
	tx.cursors = nil
}

// Savepoint establishes a named savepoint at the current point of the
// transaction. Reusing a name shadows the earlier savepoint until a
// rollback releases it, matching standard SQL semantics.
func (tx *Tx) Savepoint(name string) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return tx.doneError()
	}
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("%w: empty savepoint name", sqlparse.ErrSyntax)
	}
	key := strings.ToLower(name)
	// A savepoint record must land inside the transaction's WAL frame, so
	// creating one arms the frame like a mutation would.
	if err := tx.armFrameLocked(); err != nil {
		return fmt.Errorf("exec: savepoint %s: %w", name, err)
	}
	if _, err := tx.sess.Eng.WAL().Append(wal.KindTxSavepoint, "", []byte(key)); err != nil {
		return fmt.Errorf("exec: savepoint %s: %w", name, err)
	}
	tx.saves = append(tx.saves, txSavepoint{name: key, mark: tx.sess.Eng.WAL().FrameRecords()})
	return nil
}

// RollbackTo reverts the statements executed after the named savepoint and
// keeps the transaction open. Savepoints created after it are released; the
// named one survives and can be rolled back to again. If the rollback
// marker cannot be logged the WHOLE transaction is rolled back (a later
// COMMIT would otherwise re-commit the reverted statements on recovery) and
// the returned error says so.
func (tx *Tx) RollbackTo(name string) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return tx.doneError()
	}
	key := strings.ToLower(name)
	idx := -1
	for i := len(tx.saves) - 1; i >= 0; i-- {
		if tx.saves[i].name == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: %s", ErrNoSavepoint, name)
	}
	if _, err := tx.sess.Eng.WAL().Append(wal.KindTxRollbackTo, "", []byte(key)); err != nil {
		aerr := fmt.Errorf("exec: rollback to savepoint %s failed to log, transaction rolled back: %w", name, err)
		return errors.Join(aerr, tx.rollbackLocked(aerr))
	}
	err := tx.sess.undoFrame(tx.saves[idx].mark)
	tx.saves = tx.saves[:idx+1]
	return err
}

// Query runs one statement inside the transaction and returns a cursor over
// its result. Transaction-control SQL (COMMIT, ROLLBACK, SAVEPOINT, ...) is
// accepted and routed to the matching Tx method.
func (tx *Tx) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(sqlparse.CountPlaceholders(stmt), args)
	if err != nil {
		return nil, err
	}
	if sqlparse.IsTxControl(stmt) {
		msg, err := tx.sess.execTxControl(ctx, stmt)
		if err != nil {
			return nil, err
		}
		return &Rows{message: msg, limit: -1}, nil
	}
	return tx.queryStmt(ctx, stmt, params, nil)
}

// Exec runs one statement inside the transaction and materializes the full
// result.
func (tx *Tx) Exec(sql string, args ...any) (*Result, error) {
	rows, err := tx.Query(context.Background(), sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.materialize()
}

// queryStmt executes a parsed, bound statement inside the transaction,
// latching first: a SELECT latches the tables it reads (two-phase locking
// over reads is what keeps writer isolation serializable — think
// SELECT-then-UPDATE transfer patterns), a mutation latches its write set
// and arms the WAL frame. Latches accumulate until the transaction ends. A
// statement refused with storage.ErrDeadlock fails alone — the transaction
// stays usable and keeps what it already holds. A mutating statement that
// fails is rolled back to its own start and the transaction stays usable.
func (tx *Tx) queryStmt(ctx context.Context, stmt sqlparse.Statement, params value.Row, prep *Stmt) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, tx.doneError()
	}
	s := tx.sess
	if sel, ok := stmt.(*sqlparse.SelectStmt); ok {
		if err := tx.locker.Acquire(selectScopeList(sel)...); err != nil {
			return nil, err
		}
		if !s.NoOptimize {
			rows, err := s.buildStream(ctx, sel, params, prep, nil)
			if err != nil {
				return nil, err
			}
			// The cursor reads the current state under the transaction's
			// latches (so it observes the transaction's own writes); it is
			// invalidated when the transaction ends, and each Next holds
			// tx.mu so an auto-rollback never races an in-flight pull.
			rows.txmu = &tx.mu
			tx.cursors = append(tx.cursors, rows)
			return rows, nil
		}
	}
	var res *Result
	var err error
	if readOnlyStmt(stmt) {
		res, err = s.execStmt(ctx, stmt, params, prep)
	} else {
		res, err = tx.execMutationLocked(ctx, stmt, params, prep)
	}
	if err != nil {
		return nil, err
	}
	return &Rows{
		cols:     res.Columns,
		rows:     res.Rows,
		affected: res.Affected,
		message:  res.Message,
		limit:    -1,
	}, nil
}

// execMutationLocked runs one mutating statement with statement-level
// atomicity: on error the frame's records from the statement's start on are
// undone (the transaction's earlier statements survive) and a TxStmtAbort
// marker tells recovery to discard them too. If that marker cannot be
// written, committing would resurrect the partial statement — so the whole
// transaction is rolled back instead.
func (tx *Tx) execMutationLocked(ctx context.Context, stmt sqlparse.Statement, params value.Row, prep *Stmt) (*Result, error) {
	s := tx.sess
	// Latch the statement's tables before touching the WAL scope: writers
	// on the same table serialize on the table latch first, keeping the
	// common workloads cycle-free (a genuine cycle with another transaction
	// fails this statement with storage.ErrDeadlock, transaction intact).
	if err := tx.locker.Acquire(s.writeScopes(stmt)...); err != nil {
		return nil, err
	}
	if err := tx.armFrameLocked(); err != nil {
		return nil, err
	}
	log := s.Eng.WAL()
	mark := log.FrameRecords()
	res, err := s.execStmt(ctx, stmt, params, prep)
	if err == nil {
		return res, nil
	}
	if rbErr := s.undoFrame(mark); rbErr != nil {
		full := tx.rollbackLocked(rbErr)
		return nil, errors.Join(err,
			fmt.Errorf("exec: statement rollback failed, transaction rolled back: %w", rbErr), full)
	}
	if n := log.FrameRecords() - mark; n > 0 {
		payload := binary.AppendUvarint(nil, uint64(n))
		if _, aerr := log.Append(wal.KindTxStmtAbort, "", payload); aerr != nil {
			full := tx.rollbackLocked(aerr)
			return nil, errors.Join(err,
				fmt.Errorf("exec: statement abort marker failed, transaction rolled back: %w", aerr), full)
		}
	}
	return nil, err
}

// execTxControl handles BEGIN/COMMIT/ROLLBACK/SAVEPOINT statements against
// the session's transaction state, returning the utility message.
func (s *Session) execTxControl(ctx context.Context, stmt sqlparse.Statement) (string, error) {
	switch st := stmt.(type) {
	case *sqlparse.BeginStmt:
		if _, err := s.Begin(ctx); err != nil {
			return "", err
		}
		return "transaction started", nil
	case *sqlparse.CommitStmt:
		tx := s.openTx()
		if tx == nil {
			return "", fmt.Errorf("%w: COMMIT", ErrNoTx)
		}
		if err := tx.Commit(); err != nil {
			return "", err
		}
		return "transaction committed", nil
	case *sqlparse.RollbackStmt:
		tx := s.openTx()
		if tx == nil {
			return "", fmt.Errorf("%w: ROLLBACK", ErrNoTx)
		}
		if st.Savepoint != "" {
			if err := tx.RollbackTo(st.Savepoint); err != nil {
				return "", err
			}
			return fmt.Sprintf("rolled back to savepoint %s", strings.ToLower(st.Savepoint)), nil
		}
		if err := tx.Rollback(); err != nil {
			return "", err
		}
		return "transaction rolled back", nil
	case *sqlparse.SavepointStmt:
		tx := s.openTx()
		if tx == nil {
			return "", fmt.Errorf("%w: SAVEPOINT", ErrNoTx)
		}
		if err := tx.Savepoint(st.Name); err != nil {
			return "", err
		}
		return fmt.Sprintf("savepoint %s created", strings.ToLower(st.Name)), nil
	default:
		return "", fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

// execAutoCommit wraps one bare mutating statement in an implicit
// transaction: per-table write latches and the WAL scope taken up front
// (tables first, WAL last — one sorted batch per group, so auto-commit
// statements never deadlock each other), WAL frame armed lazily (a
// statement that logs nothing leaves no trace), committed on success and
// fully rolled back — memory from the frame's records and, via recovery,
// disk — on any error, including context cancellation mid-write. prep is
// the prepared statement being executed, if any; UPDATE and DELETE take
// their cached plan from it. Read-only statements skip all of the above:
// EXPLAIN only plans, SHOW PENDING reads the internally-locked approval
// state, and a SELECT arrives here only from a NoOptimize session
// (queryStmt streams the rest) and runs the reference executor over the
// current heap (its per-row reads are individually consistent; reference
// sessions are single-actor by construction).
func (s *Session) execAutoCommit(ctx context.Context, stmt sqlparse.Statement, params value.Row, prep *Stmt) (*Result, error) {
	if readOnlyStmt(stmt) {
		return s.execStmt(ctx, stmt, params, prep)
	}
	locker := s.Eng.Locks().NewLocker()
	defer locker.ReleaseAll()
	if err := locker.Acquire(s.writeScopes(stmt)...); err != nil {
		return nil, err
	}
	if err := locker.Acquire(storage.ScopeWAL); err != nil {
		return nil, err
	}
	log := s.Eng.WAL()
	if err := log.BeginTx(true); err != nil {
		return nil, err
	}
	mark := s.Eng.BeginWrite()
	res, err := s.execStmt(ctx, stmt, params, prep)
	if err == nil {
		if err = log.CommitTx(); err != nil {
			err = fmt.Errorf("exec: commit statement: %w", err)
		}
	}
	if err != nil {
		if rbErr := s.undoFrame(0); rbErr != nil {
			err = errors.Join(err, fmt.Errorf("exec: statement rollback: %w", rbErr))
		}
		// Close the frame as aborted — after a failed commit too, so a
		// transient append failure does not wedge every later statement on
		// "frame already open"; if even the abort marker is lost, recovery
		// treats the next frame's TxBegin as an implicit abort of this one.
		_ = log.AbortTx()
	}
	lsn := log.LastLSN()
	s.Eng.EndWrite(mark)
	if err != nil {
		return nil, err
	}
	// Release the latches before waiting on durability: the fsync is shared
	// (group commit), and holding latches across it would serialize commits
	// on the disk instead of on data conflicts.
	locker.ReleaseAll()
	if serr := log.SyncCommitted(lsn); serr != nil {
		return nil, fmt.Errorf("exec: commit sync: %w", serr)
	}
	return res, nil
}
