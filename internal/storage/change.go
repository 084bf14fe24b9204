package storage

// The write path. Every way a table row changes — a live INSERT, UPDATE or
// DELETE, recovery's redo of a logged one, the undo of one by ROLLBACK, a
// savepoint, a failed statement or recovery — is one Change through one
// function, Table.write.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"bdbms/internal/heap"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// Change is one logical row change: row RowID went from Before to After. A
// nil Before is an insert, a nil After a delete. Its encoding is the payload
// of the WAL's three row record kinds: redo needs After, and crash recovery
// needs Before to undo an uncommitted change whose page already reached disk.
type Change struct {
	RowID  int64
	Before value.Row
	After  value.Row
}

// changePayload frames a change, given as the stored records of its two
// images (nil = the row is absent on that side), as a WAL record. An insert's
// payload is the after-record and a delete's the before-record; an update's
// is the length-prefixed after-record followed by the before-record.
func changePayload(beforeRec, afterRec []byte) (wal.Kind, []byte) {
	switch {
	case beforeRec == nil:
		return wal.KindInsert, afterRec
	case afterRec == nil:
		return wal.KindDelete, beforeRec
	}
	out := binary.AppendUvarint(make([]byte, 0, len(afterRec)+len(beforeRec)+4), uint64(len(afterRec)))
	out = append(out, afterRec...)
	return wal.KindUpdate, append(out, beforeRec...)
}

// DecodeChange parses the payload of a KindInsert, KindUpdate or KindDelete
// WAL record.
func DecodeChange(kind wal.Kind, payload []byte) (Change, error) {
	var c Change
	var err error
	switch kind {
	case wal.KindInsert:
		c.RowID, c.After, err = decodeStored(payload)
	case wal.KindDelete:
		c.RowID, c.Before, err = decodeStored(payload)
	case wal.KindUpdate:
		afterLen, n := binary.Uvarint(payload)
		if n <= 0 || n > 1 && payload[n-1] == 0 || uint64(len(payload)-n) < afterLen {
			return c, fmt.Errorf("storage: malformed update payload")
		}
		split := n + int(afterLen)
		if c.RowID, c.After, err = decodeStored(payload[n:split]); err != nil {
			return c, err
		}
		var beforeID int64
		beforeID, c.Before, err = decodeStored(payload[split:])
		if err == nil && beforeID != c.RowID {
			err = fmt.Errorf("storage: update payload images disagree on RowID (%d vs %d)", c.RowID, beforeID)
		}
	default:
		err = fmt.Errorf("storage: %s is not a row record", kind)
	}
	return c, err
}

// stored returns the current image of row rowID and the heap record holding
// it, both nil when the row is absent. The caller must hold t.mu.
func (t *Table) stored(rowID int64) (value.Row, []byte, error) {
	rid, ok := t.rows.get(rowID)
	if !ok {
		return nil, nil, nil
	}
	rec, err := t.file.Get(rid)
	if err != nil {
		return nil, nil, err
	}
	_, row, err := decodeStored(rec)
	return row, rec, err
}

// write is the one place table rows are written. c.Before must be the row's
// current image and beforeRec the record holding it (from stored); write
// makes the row c.After, stored as afterRec, keeping the row index, every
// B+-tree, the statistics, the write sequence and the columnar mirror's dirty
// list in step. A change that leaves the stored bytes as they are (absent to
// absent, a row to the same row) touches nothing. The caller must hold t.mu.
func (t *Table) write(c Change, beforeRec, afterRec []byte) error {
	if bytes.Equal(beforeRec, afterRec) {
		return nil
	}
	rid, _ := t.rows.get(c.RowID)
	var err error
	switch {
	case c.After == nil:
		if err = t.file.Delete(rid); err != nil {
			return err
		}
		t.rows.del(c.RowID)
		t.stats.NoteDelete(c.Before)
	case c.Before == nil:
		if err = checkRowID(c.RowID); err != nil {
			return err
		}
		if rid, err = t.file.Insert(afterRec); err != nil {
			return err
		}
		t.rows.set(c.RowID, rid)
		t.stats.NoteInsert(c.After)
		if c.RowID >= t.nextRow {
			t.nextRow = c.RowID + 1
		}
	default:
		if rid, err = t.file.Update(rid, afterRec); err != nil {
			return err
		}
		t.rows.set(c.RowID, rid)
		t.stats.NoteUpdate(c.Before, c.After)
	}
	t.writeSeq.Add(1)
	t.markColumnarDirty(c.RowID)
	t.reindex(c.RowID, c.Before, c.After)
	return nil
}

// reindex moves row rowID from its keys under image before to its keys under
// image after (nil = absent) in every B+-tree, leaving alone a tree whose key
// the change did not touch. Keys are encoded into t.keyBuf: the trees copy
// what they keep.
func (t *Table) reindex(rowID int64, before, after value.Row) {
	for col, tree := range t.indexes {
		idx := t.schema.ColumnIndex(col)
		buf := appendIndexKey(t.keyBuf[:0], before, idx)
		split := len(buf)
		buf = appendIndexKey(buf, after, idx)
		t.keyBuf = buf
		oldKey, newKey := buf[:split], buf[split:]
		if bytes.Equal(oldKey, newKey) {
			continue
		}
		if len(oldKey) > 0 {
			_ = tree.Delete(oldKey, rowIDBytes(rowID)) // absent entry: nothing to remove
		}
		if len(newKey) > 0 {
			tree.Insert(newKey, rowIDBytes(rowID))
		}
	}
}

// appendIndexKey appends the B+-tree key of row's column idx to dst, and
// nothing when the row is absent or the column is NULL (B+-trees do not
// index NULLs). A key is never empty.
func appendIndexKey(dst []byte, row value.Row, idx int) []byte {
	if idx < 0 || idx >= len(row) || row[idx].IsNull() {
		return dst
	}
	return row[idx].EncodeKey(dst)
}

// Apply makes row rowID equal target (nil = absent), whatever the row holds
// now, so it is idempotent: a replayed record may find its effect already on
// disk (heap pages are flushed at any time). It logs and records nothing.
// Redo applies a logged change's After through it; every undo (ROLLBACK,
// savepoint, failed statement, recovery of an uncommitted frame) applies a
// change's Before.
func (t *Table) Apply(rowID int64, target value.Row) error {
	var rec []byte
	if target != nil {
		coerced, err := t.schema.CoerceRow(target)
		if err != nil {
			return err
		}
		target, rec = coerced, encodeStored(rowID, coerced)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, curRec, err := t.stored(rowID)
	if err != nil {
		return err
	}
	return t.write(Change{RowID: rowID, Before: cur, After: target}, curRec, rec)
}

// mutate is the live write path behind Insert, Update and Delete, entered
// with the change validated and t.mu held. The logical WAL record is appended
// before the in-memory apply (write-ahead order): a mutation is committed the
// moment it reaches the log, and recovery redoes it if the crash hits before
// the heap write. Every LOGICAL failure (schema mismatch, duplicate key,
// oversized record) is ruled out before the append, so a WAL record never
// describes a statement the caller saw rejected. A PHYSICAL failure during
// the apply (a pager I/O error on eviction) can still follow the append; the
// statement then errors, but the record stands and recovery redoes it —
// logged means committed, exactly as if the process had crashed between the
// append and the apply.
func (t *Table) mutate(c Change, beforeRec, afterRec []byte) error {
	if len(afterRec) > heap.MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", heap.ErrRecordTooLarge, len(afterRec))
	}
	if c.Before == nil {
		if err := checkRowID(c.RowID); err != nil {
			return err
		}
	}
	kind, payload := changePayload(beforeRec, afterRec)
	if _, err := t.engine.log.Append(kind, t.schema.Name, payload); err != nil {
		return err
	}
	if err := t.write(c, beforeRec, afterRec); err != nil {
		return err
	}
	t.recordChange(c.RowID, c.Before)
	return nil
}
