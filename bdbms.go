// Package bdbms is a database management system for biological data,
// reproducing the system described in "bdbms — A Database Management System
// for Biological Data" (CIDR 2007). It extends a from-scratch embedded
// relational engine with the paper's four contributions:
//
//   - annotation and provenance management at multiple granularities,
//     queried and propagated through A-SQL (ANNOTATION, PROMOTE, AWHERE,
//     AHAVING, FILTER);
//   - local dependency tracking via procedural dependencies, with automatic
//     re-computation of executable derivations and outdated marks for the
//     rest;
//   - content-based update authorization (approval workflow with
//     automatically generated inverse statements) on top of GRANT/REVOKE;
//   - non-traditional access methods: an SP-GiST framework (trie, kd-tree,
//     point quadtree) and the SBC-tree over RLE-compressed sequences.
//
// # Querying
//
// The primary query API follows Go database idioms: Query returns a *Rows
// cursor that streams results row by row, and Prepare compiles a statement
// with `?` placeholders once for repeated execution:
//
//	db := bdbms.Open()
//	defer db.Close()
//	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
//
//	ins, _ := db.Prepare(`INSERT INTO Gene VALUES (?, ?)`)
//	ins.Exec("JW0080", "ATGATGG")
//	ins.Exec("JW0082", "CCGGTTA")
//
//	rows, _ := db.Query(ctx, `SELECT GID, GSequence FROM Gene WHERE GID = ?`, "JW0080")
//	defer rows.Close()
//	for rows.Next() {
//		var gid, seq string
//		rows.Scan(&gid, &seq)
//		fmt.Println(gid, seq, rows.Annotations())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Every SELECT is served from the planned iterator pipeline (internal/exec):
// the WHERE clause is decomposed into conjuncts, single-table predicates are
// pushed below the join into the table scans, predicates on indexed columns
// probe the B+-tree instead of scanning the heap, and equality conjuncts
// between tables drive hash equi-joins. The first row of an indexed point
// query is returned without materializing anything else, annotations are
// attached only to rows actually fetched, and canceling the Query context
// aborts the scan mid-flight.
//
// Blocking query shapes stream too, with bounded memory instead of full
// materialization: GROUP BY and aggregates run through hash aggregation
// with constant-size accumulators, DISTINCT and UNION through hash sets,
// and ORDER BY through an external merge sort — these operators spill to a
// temporary file when their working set exceeds Options.SpillBudget.
// INTERSECT and EXCEPT stream their left operand but hold one in-memory
// entry per distinct right-operand row (not budget-bounded). ORDER BY
// combined with LIMIT k is executed by a Top-N heap whose resident result
// state is O(k) regardless of table size, and ORDER BY may name columns
// that are not in the SELECT list.
//
// Prepared statements are parsed once and — for streamable SELECTs —
// planned once, with the cached plan revalidated against the schema
// version; re-executions only re-bind the `?` arguments.
//
// # Concurrency
//
// Sessions of one DB are safe for concurrent use. Readers and writers do
// not block each other: a bare SELECT pins an MVCC snapshot and streams
// from it holding no lock at all, so a cursor may stay open indefinitely —
// across concurrent UPDATEs, other transactions, even nested queries
// issued from inside its own Next loop — without stalling any writer or
// being stalled by one. The cursor sees the committed state as of the
// moment the query started (snapshot isolation); rows committed later are
// invisible to it. Still Close the Rows: an open snapshot pins row
// versions that garbage collection cannot reclaim.
//
// Writers take per-table write latches (plus a shared WAL latch that
// serializes transaction frames in the log), granted in FIFO order, so
// writes on disjoint tables only serialize where they genuinely conflict
// and no writer is starved. Two explicit transactions that latch tables
// incrementally can deadlock; the engine detects the cycle and fails the
// statement that would close it with a storage.ErrDeadlock the
// application can retry.
//
// Exec, ExecAll and MustExec remain as compatibility wrappers that drain a
// cursor into a fully materialized Result.
//
// # Transactions
//
// Begin opens an explicit multi-statement transaction; the same protocol is
// available in A-SQL as BEGIN / COMMIT / ROLLBACK [TO SAVEPOINT name] /
// SAVEPOINT name:
//
//	tx, _ := db.Begin(ctx)
//	tx.Exec(`UPDATE Account SET Balance = Balance - 10 WHERE ID = 1`)
//	tx.Exec(`UPDATE Account SET Balance = Balance + 10 WHERE ID = 2`)
//	if err := tx.Commit(); err != nil { ... }
//
// A transaction is atomic over everything a statement touches: heap rows,
// index entries, annotations and annotation tables, dependency outdated
// marks, provenance attachments and agent registrations, approval-log
// entries, and DDL (CREATE/DROP TABLE, CREATE INDEX). Each of those
// changes is one write-ahead-log record carrying what reverting it needs,
// so the transaction's WAL frame is its undo log: rollback reads the
// frame's records back and reverts them newest first, the way recovery
// reverts a transaction a crash interrupted. Savepoints give partial
// rollbacks; a statement that fails mid-transaction is rolled back by
// itself while the transaction survives.
//
// Writer isolation is serializable: a transaction latches every table it
// writes (or reads from inside the transaction) at first touch and holds
// the latches until Commit/Rollback — strict two-phase locking —  so
// conflicting transactions run either entirely before or entirely after
// one another. Snapshot readers never observe a partially committed
// transaction: a transaction's effects become visible atomically, to
// snapshots taken after its commit. The corollary: end transactions
// promptly — latches, unlike snapshots, do queue other writers. Canceling
// the Begin context rolls an abandoned transaction back automatically and
// releases its latches.
//
// Bare statements auto-commit: each runs in an implicit transaction with
// the same machinery, so a multi-row INSERT that fails halfway, a canceled
// context mid-UPDATE, or an annotation command dying between side effects
// rolls back cleanly instead of leaving half-applied state.
//
// # Persistence and durability
//
// A database opened with Options.DataFile is durable. Three files live next
// to each other: the page file itself (heap pages of every table), a
// write-ahead log (DataFile + ".wal"), and a checkpoint manifest
// (DataFile + ".manifest") holding the catalog and everything else
// reopening needs beyond the heap pages.
//
// The durability contract is write-ahead logging at transaction
// granularity. Every mutation — CREATE/DROP TABLE, CREATE INDEX,
// INSERT/UPDATE/DELETE, CREATE/DROP ANNOTATION TABLE, ADD/ARCHIVE/RESTORE
// ANNOTATION, provenance attachment and agent registration, and dependency
// outdated-mark transitions — appends a logical WAL record BEFORE its
// in-memory apply, and the records of one transaction (explicit or
// auto-commit) are framed by TxBegin/TxCommit markers. COMMIT promises
// all-or-nothing: once the TxCommit record is in the log the whole
// transaction is recovered after a crash; without it, NOTHING of the
// transaction survives reopening — recovery replays only committed frames,
// rolls back any effect of an uncommitted frame that reached the page file
// early (row records carry before-images for exactly this), and truncates
// the unclosed frame, leaving the log equal to the committed prefix. A
// record torn mid-append by the crash itself is detected by checksum and
// discarded, so recovery always lands on a record boundary.
//
// Checkpoint (called automatically by Close) bounds recovery time: it
// flushes and syncs dirty pages, snapshots the catalog and the
// memory-resident structures (annotation set, dependency bitmaps,
// provenance agents, per-table page lists and RowID counters) into the
// manifest — one atomic rename, the checkpoint's single commit point —
// and then truncates the WAL. Reopening loads the last checkpoint,
// reattaches every table to its heap pages, rebuilds the row index and
// every secondary B+-tree (and the R-tree behind the annotation store) by
// scanning, and replays the WAL tail through idempotent appliers — safe
// even when buffer evictions flushed pages after the checkpoint.
//
// What survives a crash: every COMMITTED transaction — tables and their
// rows, secondary indexes, annotation tables and annotations (archived
// state included, with their original IDs, authors and timestamps),
// provenance records and the agent registry, and dependency outdated
// marks. What reopening rolls back: the transaction that was open at the
// crash (its WAL frame has no TxCommit), transactions rolled back live
// (their frames end in TxAbort), and the statements a logged savepoint
// rollback or mid-transaction statement failure discarded. What is not
// durable at all: dependency RULES (their procedures are Go function
// values — re-register them after reopen; the marks they produced are
// durable), GRANT/REVOKE state and the content-approval operation log
// (session-scoped; approval records appear in the WAL for audit only), and
// prepared statements. The WAL is written with ordinary unbuffered writes
// and, by default, synced at checkpoints — an OS-level power loss may then
// drop the last few records (whole frames at a time — never half a
// transaction), while an application crash loses nothing committed.
// Options.SyncOnCommit closes that window: every COMMIT waits for the WAL
// to be fsynced through its commit record, and concurrent commits share
// one group-commit fsync so the upgrade costs one disk flush per batch,
// not per transaction.
//
// # When the disk lies
//
// The contract above assumes the disk stores what it was told; this
// section is the contract for when it doesn't. Every page in the data file
// is framed with a 16-byte header carrying a CRC-32C checksum over the
// page ID, format version and payload. Every read re-verifies the frame,
// so a flipped bit (bit rot), a torn page (partially persisted write) or a
// misdirected write (an intact frame landing at the wrong offset) fails
// the read with an error wrapping pager.ErrPageCorrupt that names the file
// and page — it can NEVER be served as ordinary data. Because Open scans
// every live heap page to rebuild indexes, corruption in live data
// surfaces at Open; corruption in unreferenced (orphaned) pages is caught
// by Verify, which scrubs every allocated page plus the logical,
// manifest and annotation layers. The guarantee across all
// storage-fault classes is fail-stop, never silent wrong results.
//
// Write-path faults are contained the same way. A failed page write
// (EIO/ENOSPC) during eviction or flush keeps the page dirty and resident,
// so no update is lost and the operation that needed the eviction reports
// the error. A failed fsync POISONS the pager (and the WAL): after one
// Sync failure every later Sync returns pager.ErrSyncPoisoned, Checkpoint
// refuses to truncate the WAL, and Close surfaces the error — the
// database never claims durability it cannot prove, because a failed
// fsync leaves the kernel's dirty pages in an unknowable state (fsyncgate).
// Recovery from a poisoned database is reopening it: the WAL tail is still
// intact and replays onto the last good checkpoint. A temp-file spill
// hitting ENOSPC mid-query fails that query with exec.ErrSpill wrapping
// the cause, removes the temp file, and leaves the session usable.
//
// DB.Verify and DB.Backup operationalize the contract: run Verify to
// prove a database clean (or enumerate exactly what is broken and where),
// and Backup to take a consistent online snapshot that itself opens and
// verifies. Both are also available as `bdbms-cli verify` and
// `bdbms-cli backup`.
//
// # Network
//
// The engine also runs client/server: cmd/bdbms-server puts a DB behind
// TCP, speaking a length-prefixed binary protocol (docs/PROTOCOL.md) with
// named prepared statements, cursor paging and transaction control, and
// internal/server/client is the Go client mirroring this package's shape
// (Query returning a streaming Rows, Prepare, Begin/Commit/Rollback).
// Statements received over the wire run through the same sessions as
// embedded callers, so SQL semantics, annotation propagation and the
// durability contract above are identical either way.
//
// Network connections authenticate with per-user secrets, registered via
// SetCredential (session-scoped, like GRANT/REVOKE state — the server
// installs them at startup from its -users flag) and checked in constant
// time by Authenticate. The authenticated user is subject to the same
// GRANT/REVOKE and approval checks as an embedded session. bdbms-cli
// -connect runs the interactive shell remotely with byte-identical script
// output.
package bdbms

import (
	"context"
	"fmt"
	"strings"
	"unicode/utf8"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/core"
	"bdbms/internal/dependency"
	"bdbms/internal/exec"
	"bdbms/internal/provenance"
	"bdbms/internal/storage"
)

// Re-exported result types: queries return Rows cursors (or materialized
// Results) whose cells carry propagated annotations.
type (
	// Result is the materialized outcome of executing one A-SQL statement.
	Result = exec.Result
	// Row is one result row with per-column annotations.
	Row = exec.ARow
	// Rows is a streaming cursor over a query result.
	Rows = exec.Rows
	// Stmt is a prepared statement with `?` placeholders.
	Stmt = exec.Stmt
	// Session executes statements on behalf of a specific user.
	Session = exec.Session
	// Tx is an open multi-statement transaction (see DB.Begin).
	Tx = exec.Tx
	// Annotation is a stored annotation record.
	Annotation = annotation.Annotation
	// Region is a rectangle of annotated cells (columns x rows).
	Region = annotation.Region
)

// Options configures Open.
type Options struct {
	// DataFile, when non-empty, backs the database with a page file on disk
	// instead of memory.
	DataFile string
	// PoolSize is the buffer pool capacity in pages (0 = default).
	PoolSize int
	// CellLevelAnnotations selects the naive per-cell annotation storage
	// scheme instead of the compact rectangle scheme (used for ablations).
	CellLevelAnnotations bool
	// EnforceAuth enables GRANT/REVOKE privilege checks on every statement.
	EnforceAuth bool
	// SpillBudget bounds, in bytes, the resident working set of each
	// blocking query operator — grouped aggregation, DISTINCT, UNION and
	// external sort — before it spills to a temporary file and finishes
	// with a streaming merge. Zero selects the default (8 MiB per
	// operator). Small budgets trade speed for memory; results are
	// identical either way.
	SpillBudget int
	// SyncOnCommit makes every COMMIT (explicit or auto-commit) wait for
	// the WAL to be fsynced through its commit record, upgrading the
	// durability contract from "committed transactions survive an
	// application crash" to "committed transactions survive power loss".
	// Concurrent commits are group-committed: they share one fsync instead
	// of paying one each, so the cost amortizes under load. Off by default
	// (the WAL is then synced at checkpoints); meaningless without a
	// DataFile.
	SyncOnCommit bool
}

// DB is an open bdbms database.
type DB struct {
	inner *core.DB
}

// Open creates an in-memory database with default options.
func Open() *DB {
	db, _ := OpenWith(Options{})
	return db
}

// OpenWith creates a database with the given options. A non-empty DataFile
// makes the database durable: the page file is accompanied by a write-ahead
// log (DataFile + ".wal") and a checkpoint manifest (DataFile + ".manifest")
// living next to it. Opening a DataFile that already holds a database
// recovers it — catalog, rows, secondary indexes, annotations, provenance
// and dependency outdated marks — to the exact committed state of the last
// session, replaying the WAL tail when that session crashed before
// checkpointing.
func OpenWith(opts Options) (*DB, error) {
	coreOpts := core.Options{
		DataFile:     opts.DataFile,
		PoolSize:     opts.PoolSize,
		EnforceAuth:  opts.EnforceAuth,
		SpillBudget:  opts.SpillBudget,
		SyncOnCommit: opts.SyncOnCommit,
	}
	if opts.CellLevelAnnotations {
		coreOpts.AnnotationStore = annotation.NewCellStore()
	}
	inner, err := core.Open(coreOpts)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Checkpoint makes the committed state self-contained on disk and truncates
// the write-ahead log: dirty pages are flushed and synced, the catalog and
// the in-memory structures (annotations, outdated bitmaps, provenance
// agents, per-table page lists) are snapshotted atomically into the
// manifest. Close checkpoints automatically; call Checkpoint directly to
// bound recovery time of a long-lived session. On a memory database it
// degrades to a buffer flush.
func (db *DB) Checkpoint() error { return db.inner.Checkpoint() }

// Close checkpoints the database and closes the data file and write-ahead
// log when the database is file-backed. The file handles are released even
// when the checkpoint fails; the first error is returned.
func (db *DB) Close() error { return db.inner.Close() }

// VerifyReport summarises a Verify scrub: what was covered and every
// problem found. An empty Problems slice means the database is clean.
type VerifyReport = core.VerifyReport

// VerifyProblem is one finding of a Verify scrub.
type VerifyProblem = core.VerifyProblem

// Verify scrubs the whole database and reports every integrity problem it
// can find: it reads back every allocated page through the checksumming
// pager (bit rot, torn frames and misdirected writes fail the read — even
// in orphaned pages no table references), cross-checks each table's heap
// against its row index and secondary B+-trees, validates the checkpoint
// manifest and its catalog against the live engine, and proves every
// annotation is reachable back through the spatial index. Verify quiesces
// all writers for the duration (new writers queue, snapshot readers keep
// streaming), so no statement is observed half-applied. The returned error
// covers operational
// failures only (e.g. the initial flush); integrity findings are in the
// report's Problems.
func (db *DB) Verify() (*VerifyReport, error) { return db.inner.Verify() }

// Backup takes a consistent online snapshot of a durable database into
// destDir (created if missing): the database is checkpointed with all
// writers quiesced and the three files — page file, WAL and manifest —
// are copied and fsynced, and so is destDir. Concurrent writers queue for the
// duration and resume after (snapshot readers are unaffected); no
// statement's effects can be half-captured.
// The copy set is a normal database: restore is
// OpenWith(Options{DataFile: filepath.Join(destDir, filepath.Base(orig))}),
// and the copy passes Verify. Backup fails on a memory database.
func (db *DB) Backup(destDir string) error { return db.inner.Backup(destDir) }

// Query runs one A-SQL statement as the admin user and returns a cursor
// over its result; args bind the statement's `?` placeholders. SELECTs of
// streamable shape are served lazily — close the Rows when done.
func (db *DB) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return db.inner.Query(ctx, sql, args...)
}

// Prepare parses (and for streamable SELECTs, plans) a statement once for
// repeated execution with different `?` arguments, as the admin user.
func (db *DB) Prepare(sql string) (*Stmt, error) { return db.inner.Prepare(sql) }

// Begin opens an explicit multi-statement transaction as the admin user:
// every statement run through the returned Tx is atomic with the others,
// invisible to other sessions until Commit, and fully reverted by Rollback.
// The transaction holds its per-table write latches until it ends, so end
// it promptly; canceling ctx rolls an abandoned transaction back and
// releases the latches. See the package documentation for the transactional
// guarantees.
func (db *DB) Begin(ctx context.Context) (*Tx, error) { return db.inner.Begin(ctx) }

// Exec runs one A-SQL statement as the admin user, materializing the full
// result. It is a compatibility wrapper over Query.
func (db *DB) Exec(sql string) (*Result, error) { return db.inner.Exec(sql) }

// ExecAll runs a semicolon-separated A-SQL script as the admin user.
func (db *DB) ExecAll(sql string) ([]*Result, error) { return db.inner.ExecAll(sql) }

// MustExec runs one statement and panics on error; convenient in examples.
func (db *DB) MustExec(sql string) *Result {
	res, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("bdbms: %v (statement: %s)", err, sql))
	}
	return res
}

// Session returns an execution session for the given user, subject to
// GRANT/REVOKE checks when the database was opened with EnforceAuth.
func (db *DB) Session(user string) *Session { return db.inner.Session(user) }

// Storage exposes the underlying storage engine (tables, indexes, I/O stats).
func (db *DB) Storage() *storage.Engine { return db.inner.Storage() }

// Annotations exposes the annotation manager.
func (db *DB) Annotations() *annotation.Manager { return db.inner.Annotations() }

// Provenance exposes the provenance manager.
func (db *DB) Provenance() *provenance.Manager { return db.inner.Provenance() }

// Dependencies exposes the dependency manager.
func (db *DB) Dependencies() *dependency.Manager { return db.inner.Dependencies() }

// Authorization exposes the authorization manager.
func (db *DB) Authorization() *authz.Manager { return db.inner.Authorization() }

// SetCredential installs (or, with secret "", removes) a user's network
// login secret. Credentials gate only the network server's Hello handshake
// (internal/server); the embedded API trusts its caller. Like GRANT state,
// credentials are session-scoped and not persisted.
func (db *DB) SetCredential(user, secret string) { db.inner.Authorization().SetSecret(user, secret) }

// Authenticate checks a user/secret pair against the credentials installed
// by SetCredential, in constant time. It is the default auth hook of the
// network server.
func (db *DB) Authenticate(user, secret string) error {
	return db.inner.Authorization().Authenticate(user, secret)
}

// Render formats a query result as a textual grid, listing each row's
// propagated annotations beneath it — the CLI's (and the examples')
// stand-in for the visualization tool discussed in Section 3.2.
func Render(res *Result) string {
	var b strings.Builder
	if res == nil {
		return ""
	}
	if res.Message != "" {
		b.WriteString(res.Message)
		b.WriteString("\n")
	}
	if len(res.Columns) == 0 {
		return b.String()
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row.Values))
		for c, v := range row.Values {
			s := TruncateCell(v.String(), 40)
			cells[r][c] = s
			if w := utf8.RuneCountInString(s); c < len(widths) && w > widths[c] {
				widths[c] = w
			}
		}
	}
	writeRow := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(p)
			for pad := utf8.RuneCountInString(p); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(res.Columns)
	sep := make([]string, len(res.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for r, row := range res.Rows {
		writeRow(cells[r])
		for _, ann := range row.AnnotationsFlat() {
			fmt.Fprintf(&b, "    [%s by %s] %s\n", ann.AnnTable, ann.Author, ann.PlainBody())
		}
	}
	fmt.Fprintf(&b, "(%d row(s))\n", len(res.Rows))
	return b.String()
}

// TruncateCell shortens s to at most max display runes, appending "..." when
// it cuts. Truncation happens on rune boundaries so multi-byte UTF-8
// sequences are never split mid-rune. Render and the CLI use it for grid
// cells. A max below 4 leaves no room for content plus the ellipsis and is
// raised to 4.
func TruncateCell(s string, max int) string {
	if max < 4 {
		max = 4
	}
	// Walk rune boundaries instead of materializing a []rune, so truncating
	// a multi-megabyte sequence cell costs O(max), not O(len(s)).
	n := 0
	cut := -1
	for i := range s {
		if n == max-3 {
			cut = i
		}
		n++
		if n > max {
			return s[:cut] + "..."
		}
	}
	return s
}
