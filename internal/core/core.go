// Package core wires the bdbms subsystems — the storage engine, the
// annotation, provenance, dependency and authorization managers, and the
// A-SQL executor — into a single database object. The public root package
// bdbms is a thin facade over this package.
package core

import (
	"context"
	"fmt"
	"sync"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/catalog"
	"bdbms/internal/dependency"
	"bdbms/internal/exec"
	"bdbms/internal/pager"
	"bdbms/internal/provenance"
	"bdbms/internal/storage"
	"bdbms/internal/wal"
)

// Options configures a database instance.
type Options struct {
	// Pager is the backing page store; nil means in-memory.
	Pager pager.Pager
	// PoolSize is the buffer pool capacity in pages; <= 0 uses the default.
	PoolSize int
	// AnnotationStore selects the annotation storage scheme; nil means the
	// compact rectangle scheme.
	AnnotationStore annotation.Store
	// EnforceAuth enables GRANT/REVOKE checks on sessions by default.
	EnforceAuth bool
	// SpillBudget bounds, in bytes, the resident working set of each
	// blocking query operator (grouped aggregation, DISTINCT, UNION,
	// external sort) before it spills to a temp file; 0 uses the executor
	// default.
	SpillBudget int
	// SyncOnCommit makes every commit wait for the WAL to be fsynced
	// through its last record before returning, upgrading durability from
	// at-last-checkpoint to at-commit. Concurrent commits share one fsync
	// (group commit). Off by default: the baseline contract is that a crash
	// loses at most the work since the last checkpoint.
	SyncOnCommit bool
	// DataFile, when non-empty, makes the database durable: it names the
	// page file, and the write-ahead log (DataFile + ".wal") and the
	// checkpoint manifest (DataFile + ".manifest") live next to it. Open
	// opens both files (and the page file, unless Pager is set) and recovers
	// the on-disk state; Close checkpoints and closes what Open opened.
	DataFile string
}

// DB is an open bdbms database.
type DB struct {
	eng  *storage.Engine
	ann  *annotation.Manager
	prov *provenance.Manager
	dep  *dependency.Manager
	auth *authz.Manager
	opts Options
	// wal is the engine's write-ahead log (shared with eng).
	wal *wal.Log
	// file is the page file Open opened, nil when the caller supplied
	// Options.Pager or the database lives in memory.
	file *pager.FilePager
	// openTxMu guards openTxs, the transactions currently open across every
	// session of this database. Close rolls them back before checkpointing
	// — a leaked transaction holds per-table write latches, and the
	// checkpoint's quiesce would deadlock on them forever otherwise.
	openTxMu sync.Mutex
	openTxs  map[*exec.Tx]struct{}
}

// trackTx / untrackTx are the transaction-lifecycle hooks wired into every
// session.
func (db *DB) trackTx(tx *exec.Tx) {
	db.openTxMu.Lock()
	db.openTxs[tx] = struct{}{}
	db.openTxMu.Unlock()
}

func (db *DB) untrackTx(tx *exec.Tx) {
	db.openTxMu.Lock()
	delete(db.openTxs, tx)
	db.openTxMu.Unlock()
}

// leakedTxs snapshots the currently open transactions.
func (db *DB) leakedTxs() []*exec.Tx {
	db.openTxMu.Lock()
	defer db.openTxMu.Unlock()
	out := make([]*exec.Tx, 0, len(db.openTxs))
	for tx := range db.openTxs {
		out = append(out, tx)
	}
	return out
}

// resolver adapts the storage engine to annotation.TableResolver.
type resolver struct{ eng *storage.Engine }

// ColumnCount implements annotation.TableResolver.
func (r resolver) ColumnCount(table string) (int, error) {
	tbl, err := r.eng.Table(table)
	if err != nil {
		return 0, err
	}
	return len(tbl.Schema().Columns), nil
}

// WAL implements annotation.TableResolver.
func (r resolver) WAL() *wal.Log { return r.eng.WAL() }

// MaxRowID implements annotation.TableResolver.
func (r resolver) MaxRowID(table string) (int64, error) {
	tbl, err := r.eng.Table(table)
	if err != nil {
		return 0, err
	}
	return tbl.NextRowID() - 1, nil
}

// Open creates a database with the given options. A durable database
// (Options.DataFile set) is recovered before it is handed out: the manifest
// is read first and the catalog built from it, every table is reattached to
// its heap pages, and the WAL tail is replayed to the exact committed
// pre-crash state.
func Open(opts Options) (*DB, error) {
	db := &DB{opts: opts, wal: wal.NewMemory(), openTxs: make(map[*exec.Tx]struct{})}
	var m *manifest
	cat, pgr := catalog.New(), opts.Pager
	if db.durable() {
		var err error
		if m, err = loadManifest(db.manifestPath()); err != nil {
			return nil, err
		}
		if cat, err = loadCatalog(m, db.opts.DataFile); err != nil {
			return nil, err
		}
		if pgr == nil {
			if db.file, err = pager.OpenFile(db.opts.DataFile); err != nil {
				return nil, err
			}
			pgr = db.file
		}
		if db.wal, err = wal.Open(db.opts.DataFile + ".wal"); err != nil {
			db.closeFiles()
			return nil, err
		}
	}
	db.wal.SetSyncOnCommit(opts.SyncOnCommit)
	db.eng = storage.NewEngine(storage.Config{
		Pager:    pgr,
		PoolSize: opts.PoolSize,
		Catalog:  cat,
		Log:      db.wal,
	})
	var annOpts []annotation.Option
	if opts.AnnotationStore != nil {
		annOpts = append(annOpts, annotation.WithStore(opts.AnnotationStore))
	}
	db.ann = annotation.NewManager(cat, resolver{eng: db.eng}, annOpts...)
	db.prov = provenance.NewManager(db.ann)
	db.dep = dependency.NewManager(db.eng)
	db.auth = authz.NewManager(db.eng)
	if db.durable() {
		if err := db.recover(m); err != nil {
			db.closeFiles()
			return nil, err
		}
	}
	return db, nil
}

// MustOpen is Open for callers that cannot hit a recovery error, i.e. every
// memory-backed configuration; it panics on error.
func MustOpen(opts Options) *DB {
	db, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("core: open: %v", err))
	}
	return db
}

// Storage returns the storage engine.
func (db *DB) Storage() *storage.Engine { return db.eng }

// Annotations returns the annotation manager.
func (db *DB) Annotations() *annotation.Manager { return db.ann }

// Provenance returns the provenance manager.
func (db *DB) Provenance() *provenance.Manager { return db.prov }

// Dependencies returns the dependency manager.
func (db *DB) Dependencies() *dependency.Manager { return db.dep }

// Authorization returns the authorization manager.
func (db *DB) Authorization() *authz.Manager { return db.auth }

// Session creates an A-SQL execution session for the given user. Sessions
// of one DB run concurrently from multiple goroutines: SELECT cursors read
// MVCC snapshots without locking, and mutating statements coordinate
// through the engine's per-table write latches.
func (db *DB) Session(user string) *exec.Session {
	return &exec.Session{
		Eng:         db.eng,
		Ann:         db.ann,
		Prov:        db.prov,
		Dep:         db.dep,
		Auth:        db.auth,
		User:        user,
		EnforceAuth: db.opts.EnforceAuth,
		SpillBudget: db.opts.SpillBudget,
		OnTxBegin:   db.trackTx,
		OnTxEnd:     db.untrackTx,
	}
}

// Exec runs a single statement as the built-in admin user.
func (db *DB) Exec(sql string) (*exec.Result, error) {
	return db.Session("admin").Exec(sql)
}

// ExecAll runs a semicolon-separated script as the built-in admin user.
func (db *DB) ExecAll(sql string) ([]*exec.Result, error) {
	return db.Session("admin").ExecAll(sql)
}

// Query runs one statement as the built-in admin user and returns a cursor
// over its result; SELECTs of streamable shape are served lazily.
func (db *DB) Query(ctx context.Context, sql string, args ...any) (*exec.Rows, error) {
	return db.Session("admin").Query(ctx, sql, args...)
}

// Prepare parses (and for streamable SELECTs, plans) a statement once for
// repeated execution as the built-in admin user.
func (db *DB) Prepare(sql string) (*exec.Stmt, error) {
	return db.Session("admin").Prepare(sql)
}

// Begin opens an explicit multi-statement transaction as the built-in admin
// user. The transaction accumulates per-table write latches statement by
// statement and holds them until Commit or Rollback; canceling ctx rolls an
// abandoned transaction back, latches released.
func (db *DB) Begin(ctx context.Context) (*exec.Tx, error) {
	return db.Session("admin").Begin(ctx)
}

// Close checkpoints the database (flush + manifest + WAL truncation for
// durable databases, a plain flush otherwise) and closes the files Open
// opened, even when the checkpoint fails; the first error is returned.
// Transactions still open at Close — typically leaked on an error path
// without Commit/Rollback — are rolled back first: they hold write latches,
// and the checkpoint's quiesce would otherwise block on them forever. A
// pager supplied in Options is owned by the caller.
func (db *DB) Close() error {
	for _, tx := range db.leakedTxs() {
		// ErrTxDone when the transaction raced Close with its own ending.
		_ = tx.Rollback()
	}
	err := db.Checkpoint()
	if err != nil {
		err = fmt.Errorf("core: checkpoint on close: %w", err)
	}
	if cerr := db.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

// closeFiles releases the files Open opened: the WAL and, unless the caller
// supplied the pager, the page file. Closing a memory WAL does nothing.
func (db *DB) closeFiles() error {
	var err error
	if db.wal != nil {
		err = db.wal.Close()
	}
	if db.file != nil {
		if cerr := db.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
