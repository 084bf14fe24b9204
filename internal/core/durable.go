// Durability: checkpointing and crash recovery.
//
// A file-backed database is three files next to each other: the page file
// (heap pages), the write-ahead log, and a checkpoint pair — the catalog
// snapshot plus a manifest tying everything together. Every mutation appends
// a logical WAL record before its in-memory apply, so the committed state is
// exactly "last checkpoint + WAL tail". A checkpoint flushes dirty pages,
// snapshots the catalog and the memory-resident structures (annotation set,
// outdated bitmaps, provenance agents, per-table page lists and counters)
// and then truncates the WAL; reopening loads the snapshot, reattaches every
// table to its heap pages, and redoes the WAL tail through idempotent
// appliers — pages may have been flushed after a record was logged (buffer
// evictions happen at any time), so replay tolerates effects that already
// reached disk.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"bdbms/internal/annotation"
	"bdbms/internal/catalog"
	"bdbms/internal/dependency"
	"bdbms/internal/pager"
	"bdbms/internal/provenance"
	"bdbms/internal/stats"
	"bdbms/internal/storage"
	"bdbms/internal/wal"
)

// manifestTable is the checkpointed storage state of one table.
type manifestTable struct {
	// Name is the table name (matches a catalog snapshot entry).
	Name string `json:"name"`
	// Pages are the heap page IDs backing the table, in file order.
	Pages []uint64 `json:"pages"`
	// NextRow is the RowID counter at checkpoint time.
	NextRow int64 `json:"next_row"`
	// Indexes are the indexed column names (the trees are rebuilt by scan).
	Indexes []string `json:"indexes,omitempty"`
	// Stats is the planner-statistics snapshot as of the checkpoint, possibly
	// drifted (checkpoints never pay for a rebuild). Absent when statistics
	// were never built.
	Stats *stats.Table `json:"stats,omitempty"`
}

// manifest is the checkpoint manifest: everything beyond heap pages and the
// catalog that reopening needs.
type manifest struct {
	// CheckpointLSN is the highest LSN covered by this checkpoint; recovery
	// replays only records with a greater LSN.
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// NextLSN restores the WAL's LSN counter after a truncation.
	NextLSN uint64 `json:"next_lsn"`
	// Tables is the per-table storage state.
	Tables []manifestTable `json:"tables"`
	// Annotations is the full annotation set (archived included).
	Annotations []*annotation.Annotation `json:"annotations,omitempty"`
	// NextAnnotationID restores the annotation ID counter.
	NextAnnotationID int64 `json:"next_annotation_id"`
	// Outdated is the set cells of the dependency outdated bitmaps.
	Outdated []dependency.Cell `json:"outdated,omitempty"`
	// Agents are the registered provenance agents.
	Agents []string `json:"agents,omitempty"`
}

// saveManifest writes m to path atomically: temp file, fsync, rename. The
// fsync matters — the WAL is truncated right after the rename, so the
// manifest content must be on stable storage before the old recovery source
// disappears.
func saveManifest(path string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode manifest: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("core: write manifest: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: write manifest: %w", err)
	}
	return os.Rename(tmp, path)
}

// loadManifest reads a manifest; a missing file returns (nil, nil).
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: decode manifest %s: %w", path, err)
	}
	return &m, nil
}

// Checkpoint makes the current committed state self-contained on disk and
// truncates the WAL: dirty pages are flushed and synced, the catalog and the
// memory-resident structures are snapshotted, and only then is the log
// emptied. The engine's lock manager is quiesced — every writer drains and
// new ones wait — so a checkpoint never observes a half-applied statement.
// On a memory-backed database Checkpoint degrades to FlushAll.
func (db *DB) Checkpoint() error {
	locks := db.eng.Locks()
	locks.Quiesce()
	defer locks.Resume()
	return db.checkpointLocked()
}

// checkpointFaultHook, when set by tests, runs at the named points inside
// checkpointLocked; returning an error aborts the checkpoint right there,
// simulating a crash or EIO between two checkpoint steps. The points, in
// order: "after-flush", "after-sync", "after-catalog", "after-manifest"
// (the manifest rename — the commit point — has happened, the WAL still
// holds the tail), "after-truncate".
var checkpointFaultHook func(point string) error

func checkpointFault(point string) error {
	if checkpointFaultHook != nil {
		return checkpointFaultHook(point)
	}
	return nil
}

func (db *DB) checkpointLocked() error {
	if err := db.eng.FlushAll(); err != nil {
		return fmt.Errorf("core: checkpoint flush: %w", err)
	}
	if err := checkpointFault("after-flush"); err != nil {
		return err
	}
	if !db.durable() {
		// Memory databases still log every mutation (the WAL doubles as the
		// audit surface), so a checkpoint's job of bounding log growth
		// applies to them too — there is just no snapshot to write first.
		return db.wal.Truncate()
	}
	if err := db.eng.SyncPager(); err != nil {
		return fmt.Errorf("core: checkpoint sync: %w", err)
	}
	if err := checkpointFault("after-sync"); err != nil {
		return err
	}
	m := &manifest{
		CheckpointLSN: db.wal.NextLSN() - 1,
		NextLSN:       db.wal.NextLSN(),
	}
	for _, tbl := range db.eng.Tables() {
		mt := manifestTable{
			Name:    tbl.Name(),
			NextRow: tbl.NextRowID(),
			Indexes: tbl.IndexColumns(),
			Stats:   tbl.CurrentStats(),
		}
		for _, id := range tbl.HeapPages() {
			mt.Pages = append(mt.Pages, uint64(id))
		}
		m.Tables = append(m.Tables, mt)
	}
	m.Annotations, m.NextAnnotationID = db.ann.Snapshot()
	m.Outdated = db.dep.Snapshot()
	m.Agents = db.prov.Agents()

	if err := db.eng.Catalog().SaveFile(db.catalogPath); err != nil {
		return fmt.Errorf("core: checkpoint catalog: %w", err)
	}
	if err := checkpointFault("after-catalog"); err != nil {
		return err
	}
	// The manifest rename is the commit point: a crash before it leaves the
	// previous checkpoint plus an intact WAL; a crash after it leaves the new
	// checkpoint, and replaying the not-yet-truncated WAL is harmless because
	// recovery skips records at or below CheckpointLSN.
	if err := saveManifest(db.manifestPath, m); err != nil {
		return err
	}
	if err := checkpointFault("after-manifest"); err != nil {
		return err
	}
	// Truncate refuses on a sync-poisoned log, so a WAL whose durability is
	// in doubt is never discarded (see wal.ErrSyncPoisoned).
	if err := db.wal.Truncate(); err != nil {
		return err
	}
	if err := checkpointFault("after-truncate"); err != nil {
		return err
	}
	return db.wal.Sync()
}

// durable reports whether this database has a checkpoint location.
func (db *DB) durable() bool {
	return db.wal != nil && db.catalogPath != "" && db.manifestPath != ""
}

// recover rebuilds the database from its on-disk state: catalog + manifest
// snapshot first (when one exists), then a redo pass over the WAL tail.
// Engine logging is off for the duration so replayed mutations are not
// re-appended.
func (db *DB) recover() error {
	db.eng.SetLogging(false)
	defer db.eng.SetLogging(true)

	var ckptLSN uint64
	m, err := loadManifest(db.manifestPath)
	if err != nil {
		return err
	}
	if m != nil {
		for _, mt := range m.Tables {
			schema, err := db.eng.Catalog().Table(mt.Name)
			if errors.Is(err, catalog.ErrTableNotFound) {
				// The catalog snapshot is newer than the manifest: a crash
				// hit between the two checkpoint writes, after a DROP TABLE.
				// The drop is the committed truth, so skip the stale entry
				// (its WAL row records are skipped the same way below).
				continue
			}
			if err != nil {
				return fmt.Errorf("core: manifest table %s: %w", mt.Name, err)
			}
			pages := make([]pager.PageID, len(mt.Pages))
			for i, id := range mt.Pages {
				pages[i] = pager.PageID(id)
			}
			tbl, err := db.eng.AttachTable(schema, pages, mt.NextRow, mt.Indexes)
			if err != nil {
				return err
			}
			tbl.AdoptStats(mt.Stats)
		}
		db.ann.RestoreSnapshot(m.Annotations, m.NextAnnotationID)
		db.dep.RestoreSnapshot(m.Outdated)
		for _, agent := range m.Agents {
			db.prov.RecoverAgent(agent, true)
		}
		db.wal.EnsureNextLSN(m.NextLSN)
		ckptLSN = m.CheckpointLSN
	}

	// The tail is materialised once for the redo/undo pass (replayFrame
	// looks back over a frame's records) and dropped after it; the log
	// itself keeps no copy.
	tail, err := db.wal.ReadSince(ckptLSN)
	if err != nil {
		return fmt.Errorf("core: read WAL tail: %w", err)
	}
	if err := db.replayRecords(tail); err != nil {
		return err
	}
	// WAL replay maintained the adopted statistics incrementally; rebuild any
	// that picked up mutations so a reopened database carries statistics
	// byte-equivalent to a fresh recompute.
	for _, tbl := range db.eng.Tables() {
		tbl.FreshenStats()
	}
	return nil
}

// replayRecords is the redo/undo pass over the WAL tail. Records outside a
// transaction frame are individually committed and redone in order. A frame
// (TxBegin..TxCommit/TxAbort) is replayed as a unit:
//
//   - committed frames are redone, honoring savepoint structure: records
//     discarded by a logged ROLLBACK TO SAVEPOINT (or a TxStmtAbort from a
//     failed mid-transaction statement) are not redone, and row records
//     among them are compensated from their before-images — a buffer
//     eviction may have flushed their effects before the rollback;
//   - aborted frames are undone in reverse: row records are reverted from
//     their before-images (idempotent whether or not the effect reached
//     disk), and memory-resident records (annotations, marks, agents, DDL)
//     are simply skipped — they live in the checkpoint manifest, not in
//     heap pages, so nothing of them can have leaked;
//   - an unclosed frame at the log tail — the crash hit mid-transaction —
//     is undone the same way and then truncated from the log, so the
//     reopened database appends after the committed prefix.
func (db *DB) replayRecords(recs []wal.Record) error {
	for i := 0; i < len(recs); {
		rec := recs[i]
		if rec.Kind == wal.KindTxBegin {
			end, closed, err := db.replayFrame(recs, i)
			if err != nil {
				return err
			}
			if !closed {
				// Unclosed tail frame: its effects are undone; drop its
				// records so the log holds exactly the committed state.
				// The undo so far lives only in the buffer pool, and the
				// frame's records are its ONLY recovery source — flush and
				// sync the pages BEFORE destroying it, or a second crash
				// between here and the next checkpoint would durably
				// resurrect the rolled-back rows.
				if err := db.eng.FlushAll(); err != nil {
					return fmt.Errorf("core: flush before tail truncation: %w", err)
				}
				if err := db.eng.SyncPager(); err != nil {
					return fmt.Errorf("core: sync before tail truncation: %w", err)
				}
				return db.wal.TruncateFrom(rec.LSN)
			}
			i = end
			continue
		}
		if rec.Kind.IsTxControl() {
			// A stray control record outside a frame (e.g. the TxBegin was
			// consumed by an earlier checkpoint window) carries no state.
			i++
			continue
		}
		if err := db.redoRecord(rec); err != nil {
			return err
		}
		i++
	}
	return nil
}

// frameEntry is one buffered data record of a frame being replayed, plus
// the replay decision for it.
type frameEntry struct {
	rec  wal.Record
	dead bool // discarded by a savepoint rollback or statement abort
	comp bool // synthesized compensation: apply the record's undo
}

// replayFrame replays one transaction frame starting at the TxBegin at
// recs[start]. It returns the index of the first record after the frame and
// whether the frame was closed by a TxCommit/TxAbort.
func (db *DB) replayFrame(recs []wal.Record, start int) (end int, closed bool, err error) {
	var entries []*frameEntry
	var stack []*frameEntry // live (non-dead) data records, in order
	type frameSave struct {
		name string
		mark int
	}
	var saves []frameSave
	// popTo discards the live records above mark; row records get a
	// compensation entry so effects that already reached disk are reverted.
	popTo := func(mark int) {
		if mark < 0 {
			mark = 0
		}
		for len(stack) > mark {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			e.dead = true
			if isRowKind(e.rec.Kind) {
				entries = append(entries, &frameEntry{rec: e.rec, comp: true})
			}
		}
	}

	i := start + 1
	for ; i < len(recs); i++ {
		rec := recs[i]
		switch rec.Kind {
		case wal.KindTxCommit:
			for _, e := range entries {
				switch {
				case e.comp:
					if err := db.undoRecord(e.rec); err != nil {
						return 0, false, fmt.Errorf("core: compensate LSN %d (%s %s): %w", e.rec.LSN, e.rec.Kind, e.rec.Table, err)
					}
				case !e.dead:
					if err := db.redoRecord(e.rec); err != nil {
						return 0, false, err
					}
				}
			}
			return i + 1, true, nil
		case wal.KindTxAbort:
			if err := db.undoFrame(recs[start+1 : i]); err != nil {
				return 0, false, err
			}
			return i + 1, true, nil
		case wal.KindTxBegin:
			// A new frame opening inside this one means this frame's abort
			// marker was lost (the append failed along with the commit).
			// Frames never nest live, so the open frame is implicitly
			// aborted: undo it and let the caller restart at the new TxBegin.
			if err := db.undoFrame(recs[start+1 : i]); err != nil {
				return 0, false, err
			}
			return i, true, nil
		case wal.KindTxSavepoint:
			saves = append(saves, frameSave{name: string(rec.Payload), mark: len(stack)})
		case wal.KindTxRollbackTo:
			name := string(rec.Payload)
			idx := -1
			for j := len(saves) - 1; j >= 0; j-- {
				if saves[j].name == name {
					idx = j
					break
				}
			}
			if idx < 0 {
				return 0, false, fmt.Errorf("core: replay LSN %d: unknown savepoint %q", rec.LSN, name)
			}
			popTo(saves[idx].mark)
			saves = saves[:idx+1]
		case wal.KindTxStmtAbort:
			n, ok := binary.Uvarint(rec.Payload)
			if ok <= 0 || n > uint64(len(stack)) {
				return 0, false, fmt.Errorf("core: replay LSN %d: bad statement-abort count", rec.LSN)
			}
			popTo(len(stack) - int(n))
		default:
			e := &frameEntry{rec: rec}
			entries = append(entries, e)
			stack = append(stack, e)
		}
	}
	// The frame never closed: the crash hit mid-transaction. Undo whatever
	// may have reached disk; the caller truncates the records.
	if err := db.undoFrame(recs[start+1:]); err != nil {
		return 0, false, err
	}
	return i, false, nil
}

// undoFrame reverts an aborted or unclosed frame: its row records are
// undone from their before-images, newest first. Undoing every row record —
// including ones a savepoint rollback already reverted live — is safe: each
// undo overwrites the row with its before-image, and walking backwards ends
// at the pre-transaction values.
func (db *DB) undoFrame(frame []wal.Record) error {
	for i := len(frame) - 1; i >= 0; i-- {
		if err := db.undoRecord(frame[i]); err != nil {
			return fmt.Errorf("core: undo LSN %d (%s %s): %w", frame[i].LSN, frame[i].Kind, frame[i].Table, err)
		}
	}
	return nil
}

// redoRecord applies one committed record, tolerating records whose table
// did not survive recovery.
func (db *DB) redoRecord(rec wal.Record) error {
	err := db.applyRecord(rec)
	if errors.Is(err, catalog.ErrTableNotFound) {
		// Redo is tolerant of records for tables that do not survive
		// recovery: a table dropped in the replayed window (or dropped
		// right before a crash-torn checkpoint) leaves earlier row
		// records with nowhere to apply, and their effects are moot.
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: replay LSN %d (%s %s): %w", rec.LSN, rec.Kind, rec.Table, err)
	}
	return nil
}

// isRowKind reports whether the record mutates heap rows — the only record
// class whose effects can reach disk (through buffer evictions) before its
// transaction commits, and therefore the only class needing compensation.
// Everything else (annotations, outdated marks, agents, catalog DDL) is
// memory-resident and persists only through checkpoint snapshots, which
// never run mid-transaction.
func isRowKind(k wal.Kind) bool {
	return k == wal.KindInsert || k == wal.KindUpdate || k == wal.KindDelete
}

// applyRow applies one side of a logged row change through the table's
// idempotent applier: the after-image to redo it, the before-image to undo it
// (an effect that never reached disk then leaves the state unchanged).
func (db *DB) applyRow(rec wal.Record, undo bool) error {
	tbl, err := db.eng.Table(rec.Table)
	if err != nil {
		return err
	}
	c, err := storage.DecodeChange(rec.Kind, rec.Payload)
	if err != nil {
		return err
	}
	if undo {
		return tbl.Apply(c.RowID, c.Before)
	}
	return tbl.Apply(c.RowID, c.After)
}

// undoRecord reverts the effect of one row record from the before-image its
// payload carries, tolerating a missing table (created by the same doomed
// transaction). Non-row records are no-ops here.
func (db *DB) undoRecord(rec wal.Record) error {
	if !isRowKind(rec.Kind) {
		return nil
	}
	err := db.applyRow(rec, true)
	if errors.Is(err, catalog.ErrTableNotFound) {
		return nil
	}
	return err
}

// applyRecord redoes one logical WAL record.
func (db *DB) applyRecord(rec wal.Record) error {
	switch rec.Kind {
	case wal.KindCreateTable:
		var schema catalog.Schema
		if err := json.Unmarshal(rec.Payload, &schema); err != nil {
			return err
		}
		_, err := db.eng.RecoverCreateTable(&schema)
		return err
	case wal.KindDropTable:
		return db.eng.RecoverDropTable(rec.Table)
	case wal.KindCreateIndex:
		tbl, err := db.eng.Table(rec.Table)
		if err != nil {
			return err
		}
		return tbl.CreateIndex(string(rec.Payload))
	case wal.KindInsert, wal.KindUpdate, wal.KindDelete:
		return db.applyRow(rec, false)
	case wal.KindAnnotation:
		a, err := annotation.DecodeAnnotationPayload(rec.Payload)
		if err != nil {
			return err
		}
		db.ann.RecoverAnnotation(a)
		return nil
	case wal.KindAnnArchive:
		ids, archived, at, err := annotation.DecodeArchivePayload(rec.Payload)
		if err != nil {
			return err
		}
		db.ann.RecoverArchive(ids, archived, at)
		return nil
	case wal.KindCreateAnnTable:
		var def catalog.AnnotationTable
		if err := json.Unmarshal(rec.Payload, &def); err != nil {
			return err
		}
		return db.ann.RecoverCreateAnnotationTable(&def)
	case wal.KindDropAnnTable:
		var def catalog.AnnotationTable
		if err := json.Unmarshal(rec.Payload, &def); err != nil {
			return err
		}
		return db.ann.RecoverDropAnnotationTable(def.UserTable, def.Name)
	case wal.KindDepMark:
		table, rowID, col, set, err := dependency.DecodeMarkPayload(rec.Payload)
		if err != nil {
			return err
		}
		db.dep.RecoverMark(table, rowID, col, set)
		return nil
	case wal.KindProvAgent:
		name, register, err := provenance.DecodeAgentPayload(rec.Payload)
		if err != nil {
			return err
		}
		db.prov.RecoverAgent(name, register)
		return nil
	case wal.KindApproval, wal.KindCheckpoint:
		// Approval workflow state is session-scoped (see the package docs of
		// bdbms); its log records are audit-only.
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}
