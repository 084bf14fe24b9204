// Package wal implements a minimal append-only write-ahead log. Every
// mutation of bdbms — a row change, DDL, an annotation, an outdated mark, an
// agent registration, a content-approval operation (Section 6 of the paper)
// with its automatically generated inverse statement — is one tagged record,
// appended before it is applied. A transaction's records are framed by
// TxBegin/TxCommit, and the open frame is also the transaction's undo log:
// rollback reads it back (FrameTail) and reverts its records newest first.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Kind tags the type of a log record.
type Kind uint8

// Log record kinds.
const (
	// KindInsert records a row insertion.
	KindInsert Kind = iota + 1
	// KindUpdate records a row update.
	KindUpdate
	// KindDelete records a row deletion.
	KindDelete
	// KindApproval records a content-approval decision.
	KindApproval
	// KindCheckpoint marks a checkpoint.
	KindCheckpoint
	// KindAnnotation records an annotation insertion (ADD ANNOTATION).
	KindAnnotation
	// KindCreateTable records CREATE TABLE (payload: JSON schema).
	KindCreateTable
	// KindDropTable records DROP TABLE.
	KindDropTable
	// KindCreateIndex records CREATE INDEX (payload: column name).
	KindCreateIndex
	// KindCreateAnnTable records CREATE ANNOTATION TABLE (payload: JSON def).
	KindCreateAnnTable
	// KindDropAnnTable records DROP ANNOTATION TABLE.
	KindDropAnnTable
	// KindAnnArchive records ARCHIVE/RESTORE ANNOTATION state changes
	// (payload: JSON list of annotation IDs plus the archived flag).
	KindAnnArchive
	// KindDepMark records an outdated-bitmap cell transition from the
	// dependency manager (payload: JSON cell plus set/clear flag).
	KindDepMark
	// KindProvAgent records provenance agent (de)registration.
	KindProvAgent
	// KindTxBegin opens a transaction frame: the data records that follow,
	// up to the matching KindTxCommit or KindTxAbort, belong to one
	// transaction. Write frames are serialized by the storage layer's WAL
	// latch, so frames never interleave and records need no transaction ID.
	KindTxBegin
	// KindTxCommit closes a transaction frame: recovery redoes its records.
	// A frame with no closing record (the process died mid-transaction) is
	// rolled back on reopen from the before-images its records carry.
	KindTxCommit
	// KindTxAbort closes a rolled-back transaction frame: recovery undoes
	// any of its effects that reached disk and skips the rest.
	KindTxAbort
	// KindTxSavepoint marks a savepoint inside an open frame (payload: name).
	KindTxSavepoint
	// KindTxRollbackTo records ROLLBACK TO SAVEPOINT (payload: name):
	// recovery discards — and compensates on disk for — the frame records
	// after the named savepoint.
	KindTxRollbackTo
	// KindTxStmtAbort records the mid-transaction rollback of one failed
	// statement (payload: uvarint count of the data records to discard), so
	// a later COMMIT does not commit the failed statement's partial effects.
	KindTxStmtAbort
)

// IsTxControl reports whether the kind is a transaction-framing record
// rather than a logical data record.
func (k Kind) IsTxControl() bool {
	switch k {
	case KindTxBegin, KindTxCommit, KindTxAbort, KindTxSavepoint, KindTxRollbackTo, KindTxStmtAbort:
		return true
	default:
		return false
	}
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "INSERT"
	case KindUpdate:
		return "UPDATE"
	case KindDelete:
		return "DELETE"
	case KindApproval:
		return "APPROVAL"
	case KindCheckpoint:
		return "CHECKPOINT"
	case KindAnnotation:
		return "ANNOTATION"
	case KindCreateTable:
		return "CREATE-TABLE"
	case KindDropTable:
		return "DROP-TABLE"
	case KindCreateIndex:
		return "CREATE-INDEX"
	case KindCreateAnnTable:
		return "CREATE-ANN-TABLE"
	case KindDropAnnTable:
		return "DROP-ANN-TABLE"
	case KindAnnArchive:
		return "ANN-ARCHIVE"
	case KindDepMark:
		return "DEP-MARK"
	case KindProvAgent:
		return "PROV-AGENT"
	case KindTxBegin:
		return "TX-BEGIN"
	case KindTxCommit:
		return "TX-COMMIT"
	case KindTxAbort:
		return "TX-ABORT"
	case KindTxSavepoint:
		return "TX-SAVEPOINT"
	case KindTxRollbackTo:
		return "TX-ROLLBACK-TO"
	case KindTxStmtAbort:
		return "TX-STMT-ABORT"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Record is a single log entry.
type Record struct {
	// LSN is the log sequence number, assigned on append, starting at 1.
	LSN uint64
	// Kind tags the record type.
	Kind Kind
	// Table is the table the record concerns ("" when not applicable).
	Table string
	// Payload is the record body (already serialised by the caller).
	Payload []byte
	// Time is when the record was appended.
	Time time.Time
}

// Errors returned by the log.
var (
	// ErrCorrupt is returned when reading a damaged log.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrInjectedFailure is returned by Append once an injected fault point
	// (FailAfter) trips. It simulates the process dying before the record
	// reached the log: the record is neither written to disk nor kept in
	// memory, and every later Append keeps failing.
	ErrInjectedFailure = errors.New("wal: injected failure (simulated crash)")
	// ErrInjectedSyncFailure is returned by Sync once an injected sync fault
	// point (FailSyncAfter) trips.
	ErrInjectedSyncFailure = errors.New("wal: injected sync failure")
	// ErrSyncPoisoned marks a log whose Sync failed at least once. A failed
	// fsync may have dropped the dirty log data from the kernel cache, so
	// later syncs returning nil would spuriously report durability; the log
	// stays poisoned, and refuses to Truncate, until reopened.
	ErrSyncPoisoned = errors.New("wal: sync previously failed; durability cannot be trusted")
	// ErrClosed is returned by Append, BeginTx, CommitTx and Sync on a
	// file-backed log after Close: the record would reach no file, so it is
	// refused rather than acknowledged and lost.
	ErrClosed = errors.New("wal: log is closed")
)

// errTorn marks a record cut short by a crash mid-append. Unlike a checksum
// mismatch (bit rot, hard corruption), a torn tail is expected after a crash
// and replay recovers by truncating the file to the last intact record.
var errTorn = errors.New("wal: torn tail record")

// Log is an append-only record log. The zero value is not usable; construct
// with NewMemory or Open.
type Log struct {
	mu sync.Mutex
	// records holds a memory log's records. A file-backed log retains
	// nothing it has written — the file is the only copy, described by count
	// and size — so no field of it grows with the number of appends.
	records []Record
	nextLSN uint64
	file    *os.File // nil for memory-only logs
	// count is the number of records in the file since the last truncation
	// and size the bytes they occupy: appends land at size, and readers stop
	// there rather than at EOF.
	count int
	size  int64
	// buf is appendLocked's encode buffer, reused under mu.
	buf []byte
	// closed is set by Close on a file-backed log (see ErrClosed).
	closed bool
	// failAfter, when >= 0, is the number of further Appends allowed before
	// ErrInjectedFailure; -1 disables fault injection.
	failAfter int
	// failSyncAfter, when >= 0, is the number of further Syncs allowed
	// before ErrInjectedSyncFailure; -1 disables sync fault injection.
	failSyncAfter int
	// syncErr, once set, poisons every later Sync and Truncate (see
	// ErrSyncPoisoned).
	syncErr error
	// txOpen is true while a transaction frame is open (TxBegin written,
	// closing record pending); txPending arms a lazy frame: the TxBegin is
	// written immediately before the first data record, so an auto-commit
	// statement that appends nothing leaves no frame behind.
	txOpen    bool
	txPending bool
	// txRecords counts the data records appended inside the open frame.
	txRecords int
	// frameLSN and frameOff locate the open frame's TxBegin: its LSN, and for
	// a file-backed log its offset in the file. FrameTail reads the frame
	// back from there; the log keeps no copy of it.
	frameLSN uint64
	frameOff int64
	// syncOnCommit gates group commit: when set, SyncCommitted really
	// fsyncs. Off by default — the base durability contract is
	// durability-at-checkpoint, and SyncCommitted is then a no-op.
	syncOnCommit bool
	// syncedLSN is the highest LSN known flushed to stable storage by a
	// SyncCommitted flush. Commits at or below it return without syncing.
	syncedLSN uint64
	// flush is the in-flight group-commit ticket: non-nil while some commit
	// is running Sync on behalf of everyone appended so far. Later commits
	// park on it instead of issuing their own fsync.
	flush *flushTicket
}

// flushTicket is one shared group-commit flush: followers park on done and
// re-examine the log state when the leader closes it.
type flushTicket struct {
	done chan struct{}
}

// NewMemory returns an in-memory log.
func NewMemory() *Log { return &Log{nextLSN: 1, failAfter: -1, failSyncAfter: -1} }

// Open opens (or creates) a file-backed log. The file is validated record by
// record and counted, but nothing is kept in memory: Records, Since and
// TruncateFrom read it back on demand. A torn final record — the signature
// of a crash mid-append — is tolerated: the log ends at the last intact
// record and the tail is cut off the file.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{nextLSN: 1, file: f, failAfter: -1, failSyncAfter: -1}
	if err := l.adopt(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// adopt validates the file Open found and sets count, size and nextLSN from
// it.
func (l *Log) adopt() error {
	info, err := l.file.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	good, err := l.scan(0, info.Size(), func(rec Record, _ int64) bool {
		l.count++
		if rec.LSN >= l.nextLSN {
			l.nextLSN = rec.LSN + 1
		}
		return true
	})
	if errors.Is(err, errTorn) {
		// Torn tail from a crash mid-append: keep the intact prefix and
		// discard the rest so the next append starts on a clean boundary.
		if err := l.file.Truncate(good); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	} else if err != nil {
		return err
	}
	l.size = good
	return nil
}

// scan decodes the records between the file offsets from (a record
// boundary) and limit in order, calling fn with each and the offset just past
// it until fn returns false. It returns the offset past the last intact
// record decoded. The record's Payload is only valid during the call: the
// frame buffer is reused. The caller holds l.mu (or, in Open, is the only one
// who knows the log).
func (l *Log) scan(from, limit int64, fn func(rec Record, end int64) bool) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(l.file, from, limit-from), 64<<10)
	var frame []byte
	off := from
	for off < limit {
		rec, buf, err := readRecord(r, limit-off, frame)
		if err != nil {
			return off, err
		}
		frame = buf
		off += recordSize(rec)
		if !fn(rec, off) {
			break
		}
	}
	return off, nil
}

// Append adds a record and returns its LSN. When a lazy transaction frame is
// armed (BeginTx(true)), the first data record transparently appends the
// opening TxBegin first, so empty frames never reach the log.
func (l *Log) Append(kind Kind, table string, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.txPending && !kind.IsTxControl() {
		if err := l.openFrameLocked(); err != nil {
			return 0, err
		}
		l.txPending = false
	}
	lsn, err := l.appendLocked(kind, table, payload)
	if err == nil && l.txOpen && !kind.IsTxControl() {
		l.txRecords++
	}
	return lsn, err
}

// appendLocked writes one record; the caller holds l.mu. A file-backed log
// encodes it into l.buf and hands it to the file in one write at the tracked
// size; only a memory log keeps the record.
func (l *Log) appendLocked(kind Kind, table string, payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.failAfter == 0 {
		return 0, ErrInjectedFailure
	}
	if l.failAfter > 0 {
		l.failAfter--
	}
	rec := Record{LSN: l.nextLSN, Kind: kind, Table: table, Payload: payload, Time: time.Now().UTC()}
	if l.file == nil {
		rec.Payload = append([]byte(nil), payload...)
		l.records = append(l.records, rec)
	} else {
		l.buf = appendRecord(l.buf[:0], rec)
		if _, err := l.file.WriteAt(l.buf, l.size); err != nil {
			// Roll back a half-written record (disk full, EIO mid-write):
			// a later, shorter append at the same offset would otherwise
			// leave torn bytes after it and the log would read as corrupt.
			_ = l.file.Truncate(l.size)
			return 0, fmt.Errorf("wal: append: %w", err)
		}
		l.size += int64(len(l.buf))
		l.count++
	}
	l.nextLSN++
	return rec.LSN, nil
}

// BeginTx opens a transaction frame. Eager mode (lazy == false) appends the
// TxBegin record immediately — explicit BEGIN statements use it so the frame
// is visible in the log even while still empty. Lazy mode arms the frame
// without touching the log; the TxBegin is appended just before the first
// data record, which keeps statements that log nothing (GRANT, a DELETE
// matching no rows) free of framing records. Frames never nest: every write
// frame runs under the storage layer's exclusive WAL latch.
func (l *Log) BeginTx(lazy bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.txOpen || l.txPending {
		return fmt.Errorf("wal: transaction frame already open")
	}
	if lazy {
		l.txPending = true
		return nil
	}
	return l.openFrameLocked()
}

// openFrameLocked appends the TxBegin that opens a frame and remembers where
// the frame starts. The caller holds l.mu.
func (l *Log) openFrameLocked() error {
	off := l.size
	lsn, err := l.appendLocked(KindTxBegin, "", nil)
	if err != nil {
		return err
	}
	l.frameLSN, l.frameOff, l.txOpen = lsn, off, true
	return nil
}

// CommitTx closes the open frame with a TxCommit record. A lazy frame that
// never materialized commits for free. On error the frame is NOT committed —
// the caller must treat the transaction as rolled back (recovery will, from
// the unclosed frame).
func (l *Log) CommitTx() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.txPending {
		l.txPending = false
		return nil
	}
	if !l.txOpen {
		return nil
	}
	if _, err := l.appendLocked(KindTxCommit, "", nil); err != nil {
		return err
	}
	l.txOpen = false
	l.txRecords = 0
	return nil
}

// AbortTx closes the open frame with a TxAbort record. Best effort: even
// when the append fails (the injected-crash path), the frame state is
// cleared — an unclosed frame at the log tail reads as aborted on recovery
// anyway.
func (l *Log) AbortTx() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.txPending {
		l.txPending = false
		return nil
	}
	if !l.txOpen {
		return nil
	}
	l.txOpen = false
	l.txRecords = 0
	_, err := l.appendLocked(KindTxAbort, "", nil)
	return err
}

// InTx reports whether a transaction frame is open or armed.
func (l *Log) InTx() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.txOpen || l.txPending
}

// FrameRecords returns the number of data records appended inside the open
// frame: a position in the frame. Savepoints and statements remember one as
// their mark for FrameTail, and a failed mid-transaction statement logs the
// difference as its TxStmtAbort count.
func (l *Log) FrameRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.txRecords
}

// FrameTail returns the open frame's data records from position mark (a
// FrameRecords value taken earlier) on, oldest first; FrameTail(0) is the
// whole frame. The open frame is the transaction's undo log: ROLLBACK, ROLLBACK
// TO SAVEPOINT and a failed statement revert exactly these records, newest
// first. A memory log answers from its slice; a file-backed log reads the
// frame back from its TxBegin, under l.mu and up to the tracked size. Without
// an open frame the tail is empty.
func (l *Log) FrameTail(mark int) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.txOpen {
		return nil, nil
	}
	recs, err := l.readSinceLocked(l.frameLSN, l.frameOff)
	tail := recs[:0]
	for _, rec := range recs {
		switch {
		case rec.Kind.IsTxControl():
		case mark > 0:
			mark--
		default:
			tail = append(tail, rec)
		}
	}
	return tail, err
}

// FailAfter arms a fault point for crash-injection tests: the next n Appends
// succeed, every one after that returns ErrInjectedFailure without touching
// the log. A negative n disarms the fault point.
func (l *Log) FailAfter(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		l.failAfter = -1
		return
	}
	l.failAfter = n
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// EnsureNextLSN raises the next LSN to at least min. Recovery calls it with
// the checkpoint manifest's counter so LSNs stay monotonic across a
// truncation even when the truncated log is empty.
func (l *Log) EnsureNextLSN(min uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextLSN < min {
		l.nextLSN = min
	}
}

// Truncate discards every record, resetting a file-backed log to empty on
// disk. The LSN counter is preserved so records appended after the
// truncation keep ascending — the checkpoint manifest records the counter,
// letting recovery tell pre- from post-checkpoint records.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.syncErr != nil {
		// The records being discarded are the only redo copy of recent
		// commits; with durability in doubt they must stay.
		return fmt.Errorf("wal: refusing to truncate: %w (first failure: %v)", ErrSyncPoisoned, l.syncErr)
	}
	if l.file != nil {
		if err := l.file.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.count, l.size = 0, 0
	}
	l.records = nil
	l.txOpen = false
	l.txPending = false
	l.txRecords = 0
	return nil
}

// TruncateFrom discards every record with an LSN at or above lsn — from the
// file, found by reading it, or from a memory log's slice. Recovery uses it
// to drop the unclosed transaction frame a crash left at the log tail —
// after its effects are undone, the records must go too, or appends by the
// reopened database would extend a frame that never commits. The LSN
// counter is left untouched, so LSNs stay monotonic across the cut.
func (l *Log) TruncateFrom(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		idx := len(l.records)
		for idx > 0 && l.records[idx-1].LSN >= lsn {
			idx--
		}
		l.records = l.records[:idx]
		return nil
	}
	var keep int
	var cut int64
	if _, err := l.scan(0, l.size, func(rec Record, end int64) bool {
		if rec.LSN >= lsn {
			return false
		}
		keep, cut = keep+1, end
		return true
	}); err != nil {
		return fmt.Errorf("wal: truncate from LSN %d: %w", lsn, err)
	}
	if keep == l.count {
		return nil
	}
	if err := l.file.Truncate(cut); err != nil {
		return fmt.Errorf("wal: truncate from LSN %d: %w", lsn, err)
	}
	l.count, l.size = keep, cut
	return nil
}

// recordSize returns the exact number of bytes rec occupies in the file;
// scan advances by it.
func recordSize(rec Record) int64 {
	return int64(recordHeaderSize + recordFixedFrame + len(rec.Table) + len(rec.Payload))
}

// Sync flushes a file-backed log to stable storage. After one failed sync
// (real or injected) the log is poisoned: every later Sync fails with
// ErrSyncPoisoned rather than pretending the lost records became durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrSyncPoisoned, l.syncErr)
	}
	if l.failSyncAfter == 0 {
		l.syncErr = ErrInjectedSyncFailure
		return ErrInjectedSyncFailure
	}
	if l.failSyncAfter > 0 {
		l.failSyncAfter--
	}
	if l.file == nil {
		return nil
	}
	if err := l.file.Sync(); err != nil {
		l.syncErr = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// SetSyncOnCommit switches commit-time fsync (group commit) on or off.
// Off (the default), SyncCommitted is a no-op and durability is provided at
// checkpoint boundaries, as before. On, every commit blocks until its
// records are on stable storage — batched: concurrent commits share one
// fsync instead of paying one each.
func (l *Log) SetSyncOnCommit(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncOnCommit = on
}

// SyncOnCommit reports whether commit-time fsync is enabled.
func (l *Log) SyncOnCommit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncOnCommit
}

// LastLSN returns the LSN of the most recently appended record (0 when the
// log has always been empty). A committing writer captures it while still
// holding the WAL latch and passes it to SyncCommitted after releasing.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// SyncCommitted blocks until every record up to lsn is on stable storage —
// the group-commit entry point, called by each committing writer AFTER it
// released its latches so concurrent commits can batch. The first arrival
// becomes the flush leader: it captures the current log tail and runs one
// Sync covering every record appended so far. Commits arriving while that
// flush is in flight park on its ticket; when it completes they are either
// covered (their LSN is under the flushed tail) or loop to lead the next
// flush — at most two fsyncs of latency for any commit, one fsync total per
// batch.
//
// A failed or poisoned Sync fails EVERY commit waiting here, leader and
// parked followers alike: a failed fsync may have lost any of the batched
// records, so none of them may report durability (the PR 6 sticky-poisoning
// contract, extended to batches).
//
// When SetSyncOnCommit is off (the default), SyncCommitted returns nil
// immediately and durability remains checkpoint-based.
func (l *Log) SyncCommitted(lsn uint64) error {
	l.mu.Lock()
	if !l.syncOnCommit {
		l.mu.Unlock()
		return nil
	}
	for {
		if l.syncErr != nil {
			err := fmt.Errorf("%w (first failure: %v)", ErrSyncPoisoned, l.syncErr)
			l.mu.Unlock()
			return err
		}
		if l.syncedLSN >= lsn {
			l.mu.Unlock()
			return nil
		}
		if t := l.flush; t != nil {
			// Park on the in-flight flush; re-check everything when it
			// lands (it may not cover lsn, or it may have poisoned the log).
			l.mu.Unlock()
			<-t.done
			l.mu.Lock()
			continue
		}
		// Become the flush leader for everything appended so far.
		t := &flushTicket{done: make(chan struct{})}
		l.flush = t
		cover := l.nextLSN - 1
		l.mu.Unlock()
		err := l.Sync()
		l.mu.Lock()
		l.flush = nil
		if err == nil && cover > l.syncedLSN {
			l.syncedLSN = cover
		}
		close(t.done)
		if err != nil {
			l.mu.Unlock()
			return err
		}
		// cover >= lsn by construction (our records were appended before
		// this call), so the next loop iteration returns nil.
	}
}

// FailSyncAfter arms a sync fault point: the next n Syncs succeed, every
// one after that fails with ErrInjectedSyncFailure and poisons the log. A
// negative n disarms the fault point but does not clear poisoning — like a
// real fsync failure, there is no way to prove the data made it.
func (l *Log) FailSyncAfter(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		l.failSyncAfter = -1
		return
	}
	l.failSyncAfter = n
}

// SyncError reports the poisoned state: nil while every Sync so far
// succeeded, otherwise the first failure. Checkpoint consults it before
// discarding redo information.
func (l *Log) SyncError() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// Len returns the number of records since the last truncation, counting
// those Open found in the file. It is a counter read for either kind of log.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file != nil {
		return l.count
	}
	return len(l.records)
}

// Records returns a snapshot copy of all records in LSN order. The returned
// slice is owned by the caller: concurrent Appends never become visible
// through it, so iterating while other goroutines append is safe. (A memory
// log's payload byte slices are shared with the log but are never mutated
// after Append copies them in.) A file-backed log decodes the whole file on
// every call — see ReadSince.
func (l *Log) Records() []Record { return l.Since(0) }

// Iterate calls fn for every record in LSN order, stopping early when fn
// returns false.
func (l *Log) Iterate(fn func(Record) bool) {
	for _, rec := range l.Records() {
		if !fn(rec) {
			return
		}
	}
}

// Since returns a snapshot copy of all records with LSN strictly greater
// than lsn. Like Records, the result never aliases the log's own state. It
// is ReadSince for callers with nothing to do about an unreadable file
// (tests, harnesses): on a read error they get the records before it.
func (l *Log) Since(lsn uint64) []Record {
	out, _ := l.ReadSince(lsn)
	return out
}

// ReadSince is Since with the read error. A memory log answers from its
// slice and never fails. A file-backed log reads the file from the start
// under l.mu, up to the tracked size — so it never sees a half-appended
// record — at a cost proportional to the file, not to the result; recovery
// calls it once.
func (l *Log) ReadSince(lsn uint64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readSinceLocked(lsn, 0)
}

// readSinceLocked returns copies of the records with LSN greater than lsn; a
// file-backed log starts reading at offset from, a record boundary at or
// before the first of them. The caller holds l.mu.
func (l *Log) readSinceLocked(lsn uint64, from int64) ([]Record, error) {
	if l.file == nil {
		// Records are in ascending LSN order: binary-search the cut point.
		lo, hi := 0, len(l.records)
		for lo < hi {
			mid := (lo + hi) / 2
			if l.records[mid].LSN > lsn {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out := make([]Record, len(l.records)-lo)
		copy(out, l.records[lo:])
		return out, nil
	}
	var out []Record
	_, err := l.scan(from, l.size, func(rec Record, _ int64) bool {
		if rec.LSN > lsn {
			rec.Payload = append([]byte(nil), rec.Payload...)
			out = append(out, rec)
		}
		return true
	})
	if errors.Is(err, errTorn) {
		// Inside the tracked size every record was written whole or
		// validated by Open: a tear there is not a crash signature.
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, err
}

// Close closes a file-backed log, which from then on refuses appends and
// syncs with ErrClosed and reads back as empty; Len keeps answering. Close
// is a no-op for a memory log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil || l.closed {
		return nil
	}
	l.closed = true
	return l.file.Close()
}

// --- on-disk record format ----------------------------------------------------
//
// Each record is framed as:
//
//	crc32(frame)  uint32
//	frameLen      uint32
//	frame: lsn uint64 | kind uint8 | unixNano int64 | tableLen uint16 | table | payload
//
// The size constants below mirror this layout; writeRecord, readRecord and
// recordSize (by which scan advances through the file) must all move
// together when the format changes — TestRecordSizeMatchesWriter
// cross-checks them. appendRecord is the encoder (writeRecord wraps it for
// tests).
const (
	// recordHeaderSize is the crc32 + frameLen prefix.
	recordHeaderSize = 8
	// recordFixedFrame is the fixed portion of the frame: lsn (8) +
	// kind (1) + unixNano (8) + tableLen (2).
	recordFixedFrame = 19
)

// appendRecord appends rec's on-disk encoding — header and frame — to dst.
func appendRecord(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recordHeaderSize)...)
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Time.UnixNano()))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Table)))
	dst = append(dst, rec.Table...)
	dst = append(dst, rec.Payload...)
	frame := dst[start+recordHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(frame))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(frame)))
	return dst
}

// writeRecord writes rec's encoding to w in one Write.
func writeRecord(w io.Writer, rec Record) error {
	if _, err := w.Write(appendRecord(nil, rec)); err != nil {
		return fmt.Errorf("wal: write record: %w", err)
	}
	return nil
}

// readRecord decodes one framed record into frame (grown as needed and
// returned for reuse): the record's Payload aliases it. remaining bounds the
// record to the bytes actually left in the range, so a corrupt length field
// cannot trigger a giant allocation before the truncation is detected. A
// range that ends inside the record is errTorn; any other read failure is
// returned as it is.
func readRecord(r *bufio.Reader, remaining int64, frame []byte) (Record, []byte, error) {
	hdr, err := r.Peek(recordHeaderSize)
	if errors.Is(err, io.EOF) {
		return Record{}, frame, fmt.Errorf("%w: truncated header", errTorn)
	}
	if err != nil {
		return Record{}, frame, fmt.Errorf("wal: read header: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
	frameLen := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(frameLen) > remaining-recordHeaderSize {
		return Record{}, frame, fmt.Errorf("%w: frame length %d exceeds file tail", errTorn, frameLen)
	}
	_, _ = r.Discard(recordHeaderSize) // just peeked
	if cap(frame) < int(frameLen) {
		frame = make([]byte, frameLen)
	}
	frame = frame[:frameLen]
	if _, err := io.ReadFull(r, frame); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, frame, fmt.Errorf("%w: truncated frame", errTorn)
		}
		return Record{}, frame, fmt.Errorf("wal: read frame: %w", err)
	}
	if crc32.ChecksumIEEE(frame) != wantCRC {
		// A bad checksum on the FINAL record is the other signature of a
		// crash mid-append (the frame's bytes were only partially flushed
		// before the size reached disk) and is recovered by truncation; a
		// bad checksum with intact records after it is real corruption.
		if _, err := r.Peek(1); errors.Is(err, io.EOF) {
			return Record{}, frame, fmt.Errorf("%w: checksum mismatch at tail", errTorn)
		}
		return Record{}, frame, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if len(frame) < recordFixedFrame {
		return Record{}, frame, fmt.Errorf("%w: short frame", ErrCorrupt)
	}
	rec := Record{
		LSN:  binary.LittleEndian.Uint64(frame[0:8]),
		Kind: Kind(frame[8]),
		Time: time.Unix(0, int64(binary.LittleEndian.Uint64(frame[9:17]))).UTC(),
	}
	tableLen := int(binary.LittleEndian.Uint16(frame[17:19]))
	if len(frame) < recordFixedFrame+tableLen {
		return Record{}, frame, fmt.Errorf("%w: bad table length", ErrCorrupt)
	}
	rec.Table = string(frame[recordFixedFrame : recordFixedFrame+tableLen])
	rec.Payload = frame[recordFixedFrame+tableLen:]
	return rec, frame, nil
}
