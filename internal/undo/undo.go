// Package undo implements the in-memory undo log behind bdbms transactions.
//
// While a transaction (explicit BEGIN..COMMIT or the implicit transaction
// wrapped around every auto-commit statement) is open, every applied mutation
// pushes an Action that reverts it, in one sequence across subsystems. A row
// change pushes the storage engine's version entry — the before-image MVCC
// snapshots read is the rollback record too. Mutations of memory-resident
// state — DDL, the annotation manager (annotation cells, archive flags,
// annotation tables), the dependency manager (outdated marks), the provenance
// manager (agent registry) and the authorization manager (the approval op
// log) — push a compensating closure (Func) through their SetUndo hook.
// ROLLBACK runs the log in reverse; ROLLBACK TO SAVEPOINT runs and discards
// only the entries pushed after the savepoint's mark.
//
// The log is purely in-memory: it reverts the live state of the process.
// Crash atomicity is the write-ahead log's job — recovery undoes uncommitted
// transactions from the before-images carried in the WAL records themselves
// (see internal/core). A Log belongs to one write frame, and the
// storage.ScopeWAL latch serializes write frames, so a Log is only ever
// touched by one statement at a time and needs no locking of its own.
package undo

import "errors"

// Action reverts one applied mutation. Undo must revert state directly
// (through the idempotent appliers), never through the logging mutators:
// running the undo log must not grow the WAL or the undo log itself.
type Action interface{ Undo() error }

// Func is a compensating closure as an Action.
type Func func() error

// Undo runs the closure.
func (f Func) Undo() error { return f() }

// Log is the undo log of one open transaction. The zero value is ready to
// use.
type Log struct {
	entries []Action
}

// New returns an empty undo log.
func New() *Log { return &Log{} }

// Push records the action reverting one applied mutation.
func (l *Log) Push(a Action) { l.entries = append(l.entries, a) }

// Len returns the number of recorded actions. A savepoint is just a
// remembered Len.
func (l *Log) Len() int { return len(l.entries) }

// Rollback reverts every recorded mutation, newest first, and empties the
// log. All actions run even when one fails; the errors are joined.
func (l *Log) Rollback() error { return l.RollbackTo(0) }

// RollbackTo reverts the mutations recorded after the given mark (a Len
// captured earlier), newest first, and truncates the log back to the mark.
// All actions run even when one fails; the errors are joined.
func (l *Log) RollbackTo(mark int) error {
	if mark < 0 {
		mark = 0
	}
	var errs []error
	for i := len(l.entries) - 1; i >= mark; i-- {
		if err := l.entries[i].Undo(); err != nil {
			errs = append(errs, err)
		}
	}
	if mark < len(l.entries) {
		l.entries = l.entries[:mark]
	}
	return errors.Join(errs...)
}

// Reset discards every recorded action without running it (COMMIT).
func (l *Log) Reset() { l.entries = l.entries[:0] }
