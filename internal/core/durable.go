// Durability: checkpointing and crash recovery.
//
// A file-backed database is three files next to each other: the page file
// (heap pages), the write-ahead log, and the checkpoint manifest tying
// everything together. Every mutation appends a logical WAL record before
// its in-memory apply, so the committed state is exactly "last checkpoint +
// WAL tail". A checkpoint flushes dirty pages, snapshots the catalog and the
// memory-resident structures (annotation set, outdated bitmaps, provenance
// agents, per-table page lists and counters) into one manifest whose rename
// is the commit point, and then truncates the WAL; reopening loads the
// manifest, builds the catalog from it, reattaches every
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
	"path/filepath"

	"bdbms/internal/annotation"
	"bdbms/internal/catalog"
	"bdbms/internal/dependency"
	"bdbms/internal/pager"
	"bdbms/internal/replay"
	"bdbms/internal/stats"
	"bdbms/internal/storage"
	"bdbms/internal/wal"
)

// manifestTable is the checkpointed storage state of one table.
type manifestTable struct {
	// Name is the table name (matches an entry of the manifest's catalog).
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

// manifest is the checkpoint: everything beyond heap pages that reopening
// needs, in one file.
type manifest struct {
	// Catalog is the schema snapshot: tables and annotation-table
	// definitions. Absent in manifests written before it moved here, whose
	// catalog lives in a separate file (see loadCatalog).
	Catalog *catalog.Catalog `json:"catalog,omitempty"`
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

// saveManifest writes m to path atomically: temp file, fsync, rename, then
// an fsync of the directory. Both fsyncs matter — the WAL is truncated right
// after, so the manifest content AND its new name must be on stable storage
// before the old recovery source disappears; otherwise a power loss could
// keep the truncation and lose the rename.
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
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		return fmt.Errorf("core: write manifest: %w", err)
	}
	return nil
}

// syncDir fsyncs directory dir, making the entries created, renamed or
// removed in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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

// loadCatalog returns the catalog a database recovers with: the manifest's,
// an empty one before the first checkpoint, or — for a manifest written
// before the catalog moved into it — the snapshot in legacyCatalogFile,
// which the next checkpoint removes.
func loadCatalog(m *manifest, dataFile string) (*catalog.Catalog, error) {
	switch {
	case m == nil:
		return catalog.New(), nil
	case m.Catalog != nil:
		return m.Catalog, nil
	}
	data, err := os.ReadFile(legacyCatalogFile(dataFile))
	if err != nil {
		return nil, fmt.Errorf("core: read catalog: %w", err)
	}
	cat := catalog.New()
	if err := cat.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("core: read catalog: %w", err)
	}
	return cat, nil
}

// legacyCatalogFile is where databases whose manifest has no catalog keep
// their catalog snapshot.
func legacyCatalogFile(dataFile string) string { return dataFile + ".catalog" }

// manifestPath locates the checkpoint manifest of a durable database.
func (db *DB) manifestPath() string { return db.opts.DataFile + ".manifest" }

// Checkpoint makes the current committed state self-contained on disk and
// truncates the WAL: dirty pages are flushed and synced, the catalog and the
// memory-resident structures are snapshotted into the manifest, and only
// then is the log emptied. The engine's lock manager is quiesced — every
// writer drains and new ones wait — so a checkpoint never observes a
// half-applied statement.
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
// order: "after-flush", "after-sync", "after-manifest" (the manifest
// rename — the commit point — is durable, the WAL still holds the tail),
// "after-truncate".
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
		Catalog:       db.eng.Catalog(),
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

	// The manifest rename is the commit point: a crash before it leaves the
	// previous checkpoint plus an intact WAL; a crash after it leaves the new
	// checkpoint, and replaying the not-yet-truncated WAL is harmless because
	// recovery skips records at or below CheckpointLSN.
	if err := saveManifest(db.manifestPath(), m); err != nil {
		return err
	}
	if err := checkpointFault("after-manifest"); err != nil {
		return err
	}
	// A database from before the manifest carried the catalog drops its
	// catalog file; until the removal is durable, recovery ignores it.
	err := os.Remove(legacyCatalogFile(db.opts.DataFile))
	if err == nil {
		err = syncDir(filepath.Dir(db.opts.DataFile))
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("core: checkpoint: remove old catalog: %w", err)
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

// durable reports whether this database is file-backed.
func (db *DB) durable() bool { return db.opts.DataFile != "" }

// recover rebuilds the database from its on-disk state: the manifest m
// (nil before the first checkpoint) — whose catalog the engine was built
// with — first, then the replay of the WAL tail. Replay goes through
// appliers, which never log, so nothing replayed is appended again.
func (db *DB) recover(m *manifest) error {
	var ckptLSN uint64
	if m != nil {
		for _, mt := range m.Tables {
			schema, err := db.eng.Catalog().Table(mt.Name)
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
			db.prov.ApplyAgent(agent, true)
		}
		db.wal.EnsureNextLSN(m.NextLSN)
		ckptLSN = m.CheckpointLSN
	}

	// The tail is materialised once for the replay and dropped after it; the
	// log itself keeps no copy.
	tail, err := db.wal.ReadSince(ckptLSN)
	if err != nil {
		return fmt.Errorf("core: read WAL tail: %w", err)
	}
	if err := db.replay(tail); err != nil {
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

// frameSave is a savepoint of the frame being replayed: its name and the
// frame position it was taken at.
type frameSave struct {
	name string
	mark int
}

// replay repeats the history the WAL tail records, through internal/replay.
// Every data record is redone as it comes, inside a transaction frame
// (TxBegin .. TxCommit/TxAbort) or outside one (a record outside a frame
// committed on its own). The open frame's records are also kept — the only
// part of the log replay remembers — so that every rollback the live
// transaction performed is performed again, with the same undo in the same
// order:
//
//   - a TxRollbackTo undoes the frame's records after its savepoint, and a
//     TxStmtAbort the failed statement's last n records;
//   - a TxAbort undoes the whole frame, and so does a TxBegin arriving while
//     a frame is open (that frame's abort marker was lost: the append failed
//     along with the commit);
//   - a frame still open at the end of the log — the crash hit
//     mid-transaction — is undone as well and then truncated from the log,
//     so the reopened database appends after the committed prefix.
//
// Redo and undo both set state absolutely, so redoing a record whose effect
// already reached disk (buffer evictions write at any time) or undoing one
// whose effect never did is harmless. Each frame replays as a write frame
// (Engine.BeginWrite), which is what lets the undo of a DROP TABLE find the
// table it dropped.
func (db *DB) replay(recs []wal.Record) error {
	t := replay.Target{Eng: db.eng, Ann: db.ann, Dep: db.dep, Prov: db.prov, Auth: db.auth}
	var (
		mark     *storage.WriteMark // non-nil while a frame is open
		beginLSN uint64             // the open frame's TxBegin
		frame    []wal.Record       // the open frame's data records
		saves    []frameSave
	)
	endFrame := func(undoFrom int) error {
		err := t.Undo(frame[undoFrom:])
		db.eng.EndWrite(mark)
		mark, frame, saves = nil, frame[:0], saves[:0]
		return err
	}
	for _, rec := range recs {
		if mark == nil && rec.Kind.IsTxControl() && rec.Kind != wal.KindTxBegin {
			// A stray control record outside a frame (e.g. the TxBegin was
			// consumed by an earlier checkpoint window) carries no state.
			continue
		}
		var err error
		switch rec.Kind {
		case wal.KindTxBegin:
			if mark != nil {
				err = endFrame(0)
			}
			mark, beginLSN = db.eng.BeginWrite(), rec.LSN
		case wal.KindTxCommit:
			err = endFrame(len(frame))
		case wal.KindTxAbort:
			err = endFrame(0)
		case wal.KindTxSavepoint:
			saves = append(saves, frameSave{name: string(rec.Payload), mark: len(frame)})
		case wal.KindTxRollbackTo:
			idx := len(saves) - 1
			for idx >= 0 && saves[idx].name != string(rec.Payload) {
				idx--
			}
			if idx < 0 {
				return fmt.Errorf("core: replay LSN %d: unknown savepoint %q", rec.LSN, rec.Payload)
			}
			err = t.Undo(frame[saves[idx].mark:])
			saves = saves[:idx+1]
		case wal.KindTxStmtAbort:
			n, ok := binary.Uvarint(rec.Payload)
			if ok <= 0 || n > uint64(len(frame)) {
				return fmt.Errorf("core: replay LSN %d: bad statement-abort count", rec.LSN)
			}
			err = t.Undo(frame[len(frame)-int(n):])
		default:
			err = t.Apply(rec, false)
			if mark != nil {
				frame = append(frame, rec)
			}
		}
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if mark == nil {
		return nil
	}
	// Unclosed tail frame: undo it, then drop its records so the log holds
	// exactly the committed state. The undo lives only in the buffer pool
	// so far, and the frame's records are its ONLY recovery source — flush
	// and sync the pages BEFORE destroying it, or a second crash between
	// here and the next checkpoint would durably resurrect the rolled-back
	// rows.
	if err := endFrame(0); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := db.eng.FlushAll(); err != nil {
		return fmt.Errorf("core: flush before tail truncation: %w", err)
	}
	if err := db.eng.SyncPager(); err != nil {
		return fmt.Errorf("core: sync before tail truncation: %w", err)
	}
	return db.wal.TruncateFrom(beginLSN)
}
