// Package storage ties the low-level substrates (pager, buffer pool, heap
// files, B+-tree indexes, WAL, catalog) into the relational engine bdbms is
// built on. It plays the role PostgreSQL played for the paper's prototype:
// tables addressed by name, rows addressed by a stable RowID, secondary
// indexes, and full scans feeding the A-SQL executor.
//
// RowIDs are monotonically increasing 64-bit integers assigned at insert
// time. They are the Y axis of the rectangle-based annotation scheme
// (Figure 5) and the row coordinate of the dependency manager's outdated
// bitmaps (Figure 10), so they are exposed throughout the public API.
package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bdbms/internal/btree"
	"bdbms/internal/buffer"
	"bdbms/internal/catalog"
	"bdbms/internal/heap"
	"bdbms/internal/pager"
	"bdbms/internal/stats"
	"bdbms/internal/undo"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// Errors returned by the storage engine.
var (
	// ErrRowNotFound is returned when a RowID does not reference a live row.
	ErrRowNotFound = errors.New("storage: row not found")
	// ErrDuplicateKey is returned when inserting a duplicate primary key.
	ErrDuplicateKey = errors.New("storage: duplicate primary key")
	// ErrNoIndex is returned by index lookups on unindexed columns.
	ErrNoIndex = errors.New("storage: column is not indexed")
)

// Config controls engine construction.
type Config struct {
	// Pager is the backing page store; nil means a fresh in-memory pager.
	Pager pager.Pager
	// PoolSize is the buffer pool capacity in pages; <= 0 means 256.
	PoolSize int
	// Catalog is an existing catalog to adopt; nil means a fresh one.
	Catalog *catalog.Catalog
	// Log is the write-ahead log; nil means a fresh in-memory log.
	Log *wal.Log
}

// Engine is the storage engine: a set of named tables over one pager.
type Engine struct {
	mu     sync.RWMutex
	pgr    pager.Pager
	pool   *buffer.Pool
	cat    *catalog.Catalog
	log    *wal.Log
	tables map[string]*Table
	// version counts schema changes (table create/drop, index create); cached
	// query plans are invalidated when it moves.
	version atomic.Uint64
	// logging gates WAL appends. It is true in normal operation — every
	// mutation appends its logical record before the in-memory apply — and
	// switched off during recovery, when mutations are themselves replayed
	// from the log.
	logging atomic.Bool
	// undo, when non-nil, is the open write frame's undo log: every row
	// change pushes its version entry, every DDL a compensating closure.
	// Write frames are serialized by the exclusive ScopeWAL latch (see
	// lock.go), under which undo is installed and cleared, so plain field
	// access is race-free.
	undo *undo.Log

	// locks hands out the per-table write latches and the quiesce lock.
	locks *LockManager

	// MVCC state (see mvcc.go). mvccMu guards activeMarks and snaps and
	// orders snapshot creation against write-frame finish. Lock order:
	// a Table's t.mu may be held when taking mvccMu, never the reverse.
	mvccMu      sync.Mutex
	verSeq      atomic.Uint64
	activeMarks map[*WriteMark]bool
	snaps       map[*Snapshot]bool
	// curMark is the write frame currently applying mutations (nil outside
	// frames); mutations tag their version entries with it.
	curMark atomic.Pointer[WriteMark]
}

// Locks returns the engine's lock manager.
func (e *Engine) Locks() *LockManager { return e.locks }

// SetLogging switches WAL appends on or off. Recovery disables logging while
// replaying so replayed mutations are not re-appended to the log.
func (e *Engine) SetLogging(enabled bool) { e.logging.Store(enabled) }

// SetUndo installs (or, with nil, clears) the undo log of the open
// transaction. While installed, every row change of the write frame pushes
// its version entry and every DDL statement and index build a compensating
// closure — what ROLLBACK (and the implicit rollback of a failed auto-commit
// statement) runs. The caller must hold ScopeWAL, which serializes frames.
func (e *Engine) SetUndo(u *undo.Log) { e.undo = u }

// pushUndo records a DDL statement's compensating action when a transaction
// is open.
func (e *Engine) pushUndo(fn undo.Func) {
	if e.undo != nil {
		e.undo.Push(fn)
	}
}

// appendLog writes one logical WAL record unless logging is disabled.
func (e *Engine) appendLog(kind wal.Kind, table string, payload []byte) error {
	if !e.logging.Load() {
		return nil
	}
	_, err := e.log.Append(kind, table, payload)
	return err
}

// SchemaVersion returns a counter that increases on every schema change
// (CREATE/DROP TABLE, CREATE INDEX). Prepared statements cache their physical
// plan against it and replan when it moves.
func (e *Engine) SchemaVersion() uint64 { return e.version.Load() }

// NewEngine builds an engine from cfg.
func NewEngine(cfg Config) *Engine {
	pgr := cfg.Pager
	if pgr == nil {
		pgr = pager.NewMem()
	}
	poolSize := cfg.PoolSize
	if poolSize <= 0 {
		poolSize = 256
	}
	cat := cfg.Catalog
	if cat == nil {
		cat = catalog.New()
	}
	log := cfg.Log
	if log == nil {
		log = wal.NewMemory()
	}
	e := &Engine{
		pgr:         pgr,
		pool:        buffer.New(pgr, poolSize),
		cat:         cat,
		log:         log,
		tables:      make(map[string]*Table),
		locks:       NewLockManager(),
		activeMarks: make(map[*WriteMark]bool),
		snaps:       make(map[*Snapshot]bool),
	}
	e.logging.Store(true)
	return e
}

// NewMemoryEngine returns an engine over a fresh in-memory pager with default
// settings; the constructor used by tests, examples and benchmarks.
func NewMemoryEngine() *Engine { return NewEngine(Config{}) }

// Catalog returns the engine's schema catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// WAL returns the engine's write-ahead log.
func (e *Engine) WAL() *wal.Log { return e.log }

// PagerStats returns the physical I/O counters of the backing pager.
func (e *Engine) PagerStats() pager.Stats { return e.pgr.Stats() }

// ResetPagerStats zeroes the physical I/O counters.
func (e *Engine) ResetPagerStats() { e.pgr.ResetStats() }

// BufferStats returns the buffer pool counters.
func (e *Engine) BufferStats() buffer.Stats { return e.pool.Stats() }

// CreateTable registers schema in the catalog, logs the DDL to the WAL, and
// creates the table's heap storage. When the schema has a primary key, a
// unique index on it is created automatically.
func (e *Engine) CreateTable(schema *catalog.Schema) (*Table, error) {
	if err := e.cat.CreateTable(schema); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(schema)
	if err != nil {
		_ = e.cat.DropTable(schema.Name)
		return nil, fmt.Errorf("storage: encode schema: %w", err)
	}
	if err := e.appendLog(wal.KindCreateTable, schema.Name, payload); err != nil {
		_ = e.cat.DropTable(schema.Name)
		return nil, err
	}
	t := e.newTable(schema)
	e.mu.Lock()
	e.tables[strings.ToLower(schema.Name)] = t
	e.mu.Unlock()
	e.version.Add(1)
	e.pushUndo(func() error { return e.RecoverDropTable(schema.Name) })
	return t, nil
}

// newTable builds an empty in-memory table over a fresh heap file.
func (e *Engine) newTable(schema *catalog.Schema) *Table {
	t := &Table{
		engine:   e,
		schema:   schema,
		file:     heap.New(e.pool),
		rowIndex: make(map[int64]heap.RID),
		indexes:  make(map[string]*btree.Tree),
		nextRow:  1,
	}
	if schema.PrimaryKey != "" {
		t.indexes[strings.ToLower(schema.PrimaryKey)] = btree.New(btree.DefaultOrder)
	}
	return t
}

// DropTable removes a table, its heap data reference and its indexes.
func (e *Engine) DropTable(name string) error {
	if !e.cat.HasTable(name) {
		return fmt.Errorf("%w: %s", catalog.ErrTableNotFound, name)
	}
	if err := e.appendLog(wal.KindDropTable, name, nil); err != nil {
		return err
	}
	if err := e.cat.DropTable(name); err != nil {
		return err
	}
	key := strings.ToLower(name)
	e.mu.Lock()
	dropped := e.tables[key]
	delete(e.tables, key)
	e.mu.Unlock()
	e.version.Add(1)
	if dropped != nil {
		// The Table object keeps its heap file and indexes alive, so undoing
		// the drop is just re-registering it (and its catalog entry).
		e.pushUndo(func() error { return e.reattach(dropped) })
	}
	return nil
}

// reattach registers a table object under its schema, tolerating a catalog
// that already knows it — the undo of DropTable and the redo of CreateTable.
func (e *Engine) reattach(t *Table) error {
	if err := e.cat.CreateTable(t.schema); err != nil && !errors.Is(err, catalog.ErrTableExists) {
		return err
	}
	e.mu.Lock()
	e.tables[strings.ToLower(t.schema.Name)] = t
	e.mu.Unlock()
	e.version.Add(1)
	return nil
}

// Table returns the named table.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", catalog.ErrTableNotFound, name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (e *Engine) HasTable(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.tables[strings.ToLower(name)]
	return ok
}

// Tables returns all tables sorted by name.
func (e *Engine) Tables() []*Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].schema.Name) < strings.ToLower(out[j].schema.Name)
	})
	return out
}

// FlushAll writes all dirty buffered pages back to the pager.
func (e *Engine) FlushAll() error { return e.pool.FlushAll() }

// SyncPager forces flushed pages to stable storage.
func (e *Engine) SyncPager() error { return e.pgr.Sync() }

// Pager returns the engine's backing pager. The verify scrub reads every
// page through it directly — bypassing the buffer pool — so on-disk
// corruption is observed even for pages with a clean cached copy.
func (e *Engine) Pager() pager.Pager { return e.pgr }

// Table is one relational table: a heap file of encoded rows plus optional
// B+-tree secondary indexes.
type Table struct {
	engine   *Engine
	mu       sync.RWMutex
	schema   *catalog.Schema
	file     *heap.File
	rowIndex map[int64]heap.RID
	indexes  map[string]*btree.Tree
	nextRow  int64

	// versions is the MVCC before-image list (see mvcc.go), guarded by mu.
	// versionsBase is the absolute index of versions[0]: pruning shifts the
	// slice but snapshot overlays address entries by absolute position.
	// versionsDead counts pruned entries still pinned by the backing array,
	// driving the amortized compaction in pruneVersions.
	versions     []*versionEntry
	versionsBase uint64
	versionsDead int

	// writeSeq counts heap mutations of this table (Table.write bumps it);
	// each generation of the columnar mirror (columnar.go) is tagged with the
	// count it was built at — the count only ever advances, so a generation
	// tagged with an older one can never be mistaken for current. colDirty
	// lists the RowIDs written since colCache's generation, so the next scan
	// rebuilds only their chunks; writers append to it under mu held
	// exclusively, and the one builder colMu admits reads and clears it under
	// mu.RLock, which excludes them. colMu also keeps two concurrent analytic
	// queries from both paying for a build.
	writeSeq atomic.Uint64
	colCache atomic.Pointer[ColData]
	colMu    sync.Mutex
	colDirty []int64
	colStats struct{ fullBuilds, patches, chunksRebuilt, dropped atomic.Uint64 }

	// stats is the planner's statistics snapshot, guarded by mu. It is nil
	// until the first Stats call (or checkpoint adoption) and maintained
	// incrementally by the mutation paths afterwards; Stats rebuilds it
	// exactly once the drift threshold is crossed.
	stats *stats.Table
}

// WriteSeq exposes the mutation count so the executor can verify a columnar
// chunk set is still current at scan-build time.
func (t *Table) WriteSeq() uint64 { return t.writeSeq.Load() }

// Schema returns the table's schema.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rowIndex)
}

// NextRowID returns the RowID the next insert will receive. Used by the
// annotation manager to translate "annotate the whole column" into a
// half-open rectangle.
func (t *Table) NextRowID() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextRow
}

// encodeStored prefixes the row with its RowID so heap records are
// self-describing.
func encodeStored(rowID int64, row value.Row) []byte {
	full := make(value.Row, 0, len(row)+1)
	full = append(full, value.NewInt(rowID))
	full = append(full, row...)
	return value.EncodeRow(full)
}

func decodeStored(rec []byte) (int64, value.Row, error) {
	full, err := value.DecodeRow(rec)
	if err != nil {
		return 0, nil, err
	}
	if len(full) == 0 || full[0].Type() != value.Int {
		return 0, nil, fmt.Errorf("storage: malformed stored row")
	}
	return full[0].Int(), full[1:], nil
}

func rowIDBytes(rowID int64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(rowID))
	return buf[:]
}

func rowIDFromBytes(b []byte) int64 {
	return int64(binary.BigEndian.Uint64(b))
}

// Insert validates, coerces and stores a row, returning its RowID.
func (t *Table) Insert(row value.Row) (int64, error) {
	coerced, err := t.schema.CoerceRow(row)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkPrimaryKey(nil, coerced); err != nil {
		return 0, err
	}
	rowID := t.nextRow
	return rowID, t.mutate(Change{RowID: rowID, After: coerced}, nil, encodeStored(rowID, coerced))
}

// checkPrimaryKey rejects a row whose primary key another row already holds.
// old is the image being replaced (nil for an insert): keeping one's own key
// is not a duplicate. The caller must hold t.mu.
func (t *Table) checkPrimaryKey(old, row value.Row) error {
	if t.schema.PrimaryKey == "" {
		return nil
	}
	pkIdx := t.schema.ColumnIndex(t.schema.PrimaryKey)
	pkTree := t.indexes[strings.ToLower(t.schema.PrimaryKey)]
	pk := row[pkIdx]
	if pkTree == nil || pk.IsNull() || (old != nil && pk.Equal(old[pkIdx])) {
		return nil
	}
	if pkTree.Contains(pk.EncodeKey(nil)) {
		return fmt.Errorf("%w: %s = %s", ErrDuplicateKey, t.schema.PrimaryKey, pk)
	}
	return nil
}

// Get returns the row with the given RowID. The read lock is held across
// the heap access: a concurrent Update may move the record to a new RID,
// and the heap file itself is only safe to read while no writer holds mu.
func (t *Table) Get(rowID int64) (value.Row, error) {
	t.mu.RLock()
	row, _, err := t.stored(rowID)
	t.mu.RUnlock()
	if err == nil && row == nil {
		err = fmt.Errorf("%w: %s row %d", ErrRowNotFound, t.schema.Name, rowID)
	}
	return row, err
}

// GetColumn returns a single cell.
func (t *Table) GetColumn(rowID int64, column string) (value.Value, error) {
	idx := t.schema.ColumnIndex(column)
	if idx < 0 {
		return value.Value{}, fmt.Errorf("%w: %s.%s", catalog.ErrColumnNotFound, t.schema.Name, column)
	}
	row, err := t.Get(rowID)
	if err != nil {
		return value.Value{}, err
	}
	return row[idx], nil
}

// Update replaces the row with the given RowID.
func (t *Table) Update(rowID int64, row value.Row) error {
	coerced, err := t.schema.CoerceRow(row)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, oldRec, err := t.stored(rowID)
	if err != nil {
		return err
	}
	if old == nil {
		return fmt.Errorf("%w: %s row %d", ErrRowNotFound, t.schema.Name, rowID)
	}
	if err := t.checkPrimaryKey(old, coerced); err != nil {
		return err
	}
	return t.mutate(Change{RowID: rowID, Before: old, After: coerced}, oldRec, encodeStored(rowID, coerced))
}

// UpdateColumn updates a single cell, leaving the rest of the row unchanged.
func (t *Table) UpdateColumn(rowID int64, column string, v value.Value) error {
	idx := t.schema.ColumnIndex(column)
	if idx < 0 {
		return fmt.Errorf("%w: %s.%s", catalog.ErrColumnNotFound, t.schema.Name, column)
	}
	row, err := t.Get(rowID)
	if err != nil {
		return err
	}
	row[idx] = v // Get returned a private copy
	return t.Update(rowID, row)
}

// Delete removes the row with the given RowID.
func (t *Table) Delete(rowID int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, oldRec, err := t.stored(rowID)
	if err != nil {
		return err
	}
	if old == nil {
		return fmt.Errorf("%w: %s row %d", ErrRowNotFound, t.schema.Name, rowID)
	}
	return t.mutate(Change{RowID: rowID, Before: old}, oldRec, nil)
}

// Scan calls fn for every live row in RowID order. Iteration stops early when
// fn returns false.
func (t *Table) Scan(fn func(rowID int64, row value.Row) bool) error {
	for _, rowID := range t.RowIDs() {
		row, err := t.Get(rowID)
		if errors.Is(err, ErrRowNotFound) || errors.Is(err, heap.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if !fn(rowID, row) {
			return nil
		}
	}
	return nil
}

// RowIDs returns the live RowIDs in ascending order.
func (t *Table) RowIDs() []int64 {
	t.mu.RLock()
	ids := make([]int64, 0, len(t.rowIndex))
	for id := range t.rowIndex {
		ids = append(ids, id)
	}
	t.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CreateIndex builds a B+-tree index on the named column, backfilling it from
// existing rows. Creating an index twice is a no-op.
func (t *Table) CreateIndex(column string) error {
	idx := t.schema.ColumnIndex(column)
	if idx < 0 {
		return fmt.Errorf("%w: %s.%s", catalog.ErrColumnNotFound, t.schema.Name, column)
	}
	key := strings.ToLower(column)
	t.mu.RLock()
	_, exists := t.indexes[key]
	t.mu.RUnlock()
	if exists {
		return nil
	}
	if err := t.engine.appendLog(wal.KindCreateIndex, t.schema.Name, []byte(column)); err != nil {
		return err
	}
	// Backfill into a private tree and only then install it: concurrent
	// snapshot readers probe t.indexes under the read lock, so a tree must
	// never become visible while still being built. No writer can run here —
	// DDL holds the table's write latch — so the scan sees every row.
	tree := btree.New(btree.DefaultOrder)
	if err := t.Scan(func(rowID int64, row value.Row) bool {
		if !row[idx].IsNull() {
			tree.Insert(row[idx].EncodeKey(nil), rowIDBytes(rowID))
		}
		return true
	}); err != nil {
		return err
	}
	t.mu.Lock()
	t.indexes[key] = tree
	t.mu.Unlock()
	t.engine.version.Add(1)
	t.engine.pushUndo(func() error { t.dropIndex(key); return nil })
	return nil
}

// dropIndex removes a secondary index — the undo of CreateIndex. The key is
// the lower-cased column name.
func (t *Table) dropIndex(key string) {
	t.mu.Lock()
	delete(t.indexes, key)
	t.mu.Unlock()
	t.engine.version.Add(1)
}

// HasIndex reports whether the column has an index.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[strings.ToLower(column)]
	return ok
}

// LookupEqual returns the RowIDs whose indexed column equals v. The read
// lock is held across the probe: B+-trees are mutated in place by writers
// holding the write lock.
func (t *Table) LookupEqual(column string, v value.Value) ([]int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, ok := t.indexes[strings.ToLower(column)]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, t.schema.Name, column)
	}
	var out []int64
	for _, vb := range tree.Get(v.EncodeKey(nil)) {
		out = append(out, rowIDFromBytes(vb))
	}
	return out, nil
}

// LookupRange returns the RowIDs whose indexed column is in [lo, hi). A NULL
// hi means "to the end".
func (t *Table) LookupRange(column string, lo, hi value.Value) ([]int64, error) {
	return t.IndexRange(column, lo, false, hi, true)
}

// IndexLookup returns the RowIDs whose indexed column equals v, sorted
// ascending. The sort makes index-assisted scans emit rows in the same
// RowID order a heap scan would, which the query planner relies on to keep
// plan choice invisible in result ordering.
func (t *Table) IndexLookup(column string, v value.Value) ([]int64, error) {
	ids, err := t.LookupEqual(column, v)
	if err != nil {
		return nil, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// IndexRange returns the RowIDs whose indexed column lies between lo and hi,
// sorted ascending. A NULL bound is unbounded on that side; loStrict and
// hiStrict exclude rows equal to the respective bound. Unlike LookupRange
// (half-open [lo, hi)), both bounds default to inclusive, which is what
// pushed-down >=, >, <=, < predicates need.
func (t *Table) IndexRange(column string, lo value.Value, loStrict bool, hi value.Value, hiStrict bool) ([]int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, ok := t.indexes[strings.ToLower(column)]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, t.schema.Name, column)
	}
	var start, loKey, hiKey []byte
	if !lo.IsNull() {
		loKey = lo.EncodeKey(nil)
		start = loKey
	}
	if !hi.IsNull() {
		hiKey = hi.EncodeKey(nil)
	}
	var out []int64
	tree.AscendRange(start, nil, func(key []byte, values [][]byte) bool {
		if loStrict && loKey != nil && bytes.Equal(key, loKey) {
			return true
		}
		if hiKey != nil {
			c := bytes.Compare(key, hiKey)
			if c > 0 || (c == 0 && hiStrict) {
				return false
			}
		}
		for _, vb := range values {
			out = append(out, rowIDFromBytes(vb))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// IndexOrderedRowIDs returns every live RowID ordered by the indexed column's
// value ascending (RowID-ascending within equal keys). Rows whose column is
// NULL are absent — B+-trees do not index NULLs — so callers must only rely
// on this order when the column cannot hold NULL. The planner uses it to
// elide sorts when an index already yields the requested order.
func (t *Table) IndexOrderedRowIDs(column string) ([]int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, ok := t.indexes[strings.ToLower(column)]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, t.schema.Name, column)
	}
	out := make([]int64, 0, len(t.rowIndex))
	var perKey []int64
	tree.AscendRange(nil, nil, func(key []byte, values [][]byte) bool {
		perKey = perKey[:0]
		for _, vb := range values {
			perKey = append(perKey, rowIDFromBytes(vb))
		}
		sort.Slice(perKey, func(i, j int) bool { return perKey[i] < perKey[j] })
		out = append(out, perKey...)
		return true
	})
	return out, nil
}

// --- planner statistics -------------------------------------------------------

// computeStatsLocked rebuilds exact statistics by scanning the heap. Caller
// holds t.mu (either mode: the scan only reads).
func (t *Table) computeStatsLocked() (*stats.Table, error) {
	b := stats.NewBuilder(len(t.schema.Columns))
	var decodeErr error
	err := t.file.Scan(func(rid heap.RID, rec []byte) bool {
		_, row, decErr := decodeStored(rec)
		if decErr != nil {
			decodeErr = decErr
			return false
		}
		b.Add(row)
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// Stats returns a snapshot of the table's planner statistics, building them
// from a heap scan on first use and rebuilding them once incremental drift
// crosses the threshold. Returns nil when the heap cannot be scanned — the
// planner treats missing stats as "fall back to defaults", never as an error.
func (t *Table) Stats() *stats.Table {
	t.mu.RLock()
	if t.stats != nil && !t.stats.Drifted() {
		s := t.stats.Clone()
		t.mu.RUnlock()
		return s
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats != nil && !t.stats.Drifted() {
		return t.stats.Clone()
	}
	s, err := t.computeStatsLocked()
	if err != nil {
		return nil
	}
	t.stats = s
	return s.Clone()
}

// CurrentStats returns the current statistics as-is — possibly drifted, nil
// if never built — without triggering a rebuild. Checkpoints snapshot this
// (rebuilding inside a checkpoint would penalize the commit path) and Verify
// reads it (Verify must not mutate the database it is scrubbing).
func (t *Table) CurrentStats() *stats.Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats.Clone()
}

// ComputeStats runs a pure exact recompute without touching the cached
// statistics. Verify compares it against CurrentStats.
func (t *Table) ComputeStats() (*stats.Table, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.computeStatsLocked()
}

// AdoptStats installs a checkpointed statistics snapshot during recovery.
// A snapshot whose column count disagrees with the schema is discarded
// (stats are advisory; a stale manifest must not wedge recovery).
func (t *Table) AdoptStats(s *stats.Table) {
	if s == nil || len(s.Cols) != len(t.schema.Columns) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = s.Clone()
}

// FreshenStats rebuilds the statistics exactly if any mutations were applied
// on top of the last exact build. Recovery calls it after WAL replay so that
// reopened statistics are byte-equivalent to a fresh recompute.
func (t *Table) FreshenStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats == nil || t.stats.Mods == 0 {
		return
	}
	if s, err := t.computeStatsLocked(); err == nil {
		t.stats = s
	}
}

// --- durability: manifest accessors and recovery appliers ---------------------
//
// The methods below are the storage half of the crash-recovery path. A
// checkpoint records, per table, the heap page list, the next RowID and the
// indexed columns (HeapPages/NextRowID/IndexColumns); reopening a database
// reattaches each table to its pages (AttachTable) and then replays the WAL
// tail — row records through Table.Apply, DDL through the Recover* appliers
// below — all idempotent: heap pages may have been flushed after the
// checkpoint (buffer evictions happen at any time), so a replayed record may
// find its effect already on disk.

// HeapPages returns the page IDs backing the table's heap file, in order.
func (t *Table) HeapPages() []pager.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.file.Pages()
}

// IndexColumns returns the indexed column names, sorted.
func (t *Table) IndexColumns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for col := range t.indexes {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

// CheckIntegrity cross-checks the table's three views of its rows — the
// heap records, the row index, and every B+-tree — in both directions and
// returns a list of human-readable problems, empty when the table is
// consistent. It is the per-table half of the database verify scrub: the
// pager's checksums prove pages were stored faithfully; this proves the
// structures built on them agree with each other.
func (t *Table) CheckIntegrity() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Heap pass: every record decodes, is unique, and is indexed at its RID.
	heapRows := make(map[int64]value.Row)
	scanErr := t.file.Scan(func(rid heap.RID, rec []byte) bool {
		rowID, row, err := decodeStored(rec)
		if err != nil {
			addf("heap record at %s does not decode: %v", rid, err)
			return true
		}
		if _, dup := heapRows[rowID]; dup {
			addf("row %d stored twice in the heap", rowID)
			return true
		}
		heapRows[rowID] = row
		if got, ok := t.rowIndex[rowID]; !ok {
			addf("heap row %d missing from the row index", rowID)
		} else if got != rid {
			addf("row index places row %d at %s, heap has it at %s", rowID, got, rid)
		}
		if rowID >= t.nextRow {
			addf("row %d is at or above the next-RowID counter %d", rowID, t.nextRow)
		}
		return true
	})
	if scanErr != nil {
		addf("heap scan failed: %v", scanErr)
	}
	for rowID := range t.rowIndex {
		if _, ok := heapRows[rowID]; !ok {
			addf("row index entry %d has no heap record", rowID)
		}
	}

	// Index pass: every tree entry points at a live row whose stored value
	// matches the key, and every non-NULL row value is findable in the tree.
	for col, tree := range t.indexes {
		idx := t.schema.ColumnIndex(col)
		if idx < 0 {
			addf("index %q is on a column missing from the schema", col)
			continue
		}
		entries := 0
		tree.AscendRange(nil, nil, func(key []byte, values [][]byte) bool {
			for _, vb := range values {
				entries++
				rowID := rowIDFromBytes(vb)
				row, ok := heapRows[rowID]
				if !ok {
					addf("index %q entry points at missing row %d", col, rowID)
					continue
				}
				if idx >= len(row) || row[idx].IsNull() {
					addf("index %q has an entry for row %d whose column is NULL", col, rowID)
					continue
				}
				if !bytes.Equal(row[idx].EncodeKey(nil), key) {
					addf("index %q entry for row %d disagrees with the stored value", col, rowID)
				}
			}
			return true
		})
		want := 0
		for rowID, row := range heapRows {
			if idx >= len(row) || row[idx].IsNull() {
				continue
			}
			want++
			found := false
			for _, vb := range tree.Get(row[idx].EncodeKey(nil)) {
				if rowIDFromBytes(vb) == rowID {
					found = true
					break
				}
			}
			if !found {
				addf("row %d missing from index %q", rowID, col)
			}
		}
		if entries != want {
			addf("index %q holds %d entries, want %d", col, entries, want)
		}
	}
	return problems
}

// AttachTable rebuilds a table from checkpointed state: the catalog schema,
// the heap pages that held its rows at checkpoint time, the persisted RowID
// counter and the indexed columns. The row index and every B+-tree are
// rebuilt by scanning the heap. The catalog entry must already exist (the
// catalog snapshot is loaded before tables are attached).
func (e *Engine) AttachTable(schema *catalog.Schema, pages []pager.PageID, nextRow int64, indexCols []string) (*Table, error) {
	file, err := heap.Open(e.pool, pages)
	if err != nil {
		return nil, fmt.Errorf("storage: attach %s: %w", schema.Name, err)
	}
	t := e.newTable(schema) // with the primary-key index
	t.file, t.nextRow = file, nextRow
	for _, col := range indexCols {
		if key := strings.ToLower(col); t.indexes[key] == nil {
			t.indexes[key] = btree.New(btree.DefaultOrder)
		}
	}
	scanErr := file.Scan(func(rid heap.RID, rec []byte) bool {
		rowID, row, decErr := decodeStored(rec)
		if decErr != nil {
			err = decErr
			return false
		}
		t.rowIndex[rowID] = rid
		if rowID >= t.nextRow {
			t.nextRow = rowID + 1
		}
		t.reindex(rowID, nil, row)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if err != nil {
		return nil, fmt.Errorf("storage: attach %s: %w", schema.Name, err)
	}
	e.mu.Lock()
	e.tables[strings.ToLower(schema.Name)] = t
	e.mu.Unlock()
	e.version.Add(1)
	return t, nil
}

// RecoverCreateTable replays a logged CREATE TABLE: it tolerates the catalog
// already knowing the schema (the catalog snapshot may be newer than the
// checkpoint manifest when a crash hit between the two writes).
func (e *Engine) RecoverCreateTable(schema *catalog.Schema) (*Table, error) {
	e.mu.RLock()
	existing, ok := e.tables[strings.ToLower(schema.Name)]
	e.mu.RUnlock()
	if ok {
		return existing, nil
	}
	t := e.newTable(schema)
	if err := e.reattach(t); err != nil {
		return nil, err
	}
	return t, nil
}

// RecoverDropTable replays a logged DROP TABLE, tolerating an already-absent
// table.
func (e *Engine) RecoverDropTable(name string) error {
	if err := e.cat.DropTable(name); err != nil && !errors.Is(err, catalog.ErrTableNotFound) {
		return err
	}
	e.mu.Lock()
	delete(e.tables, strings.ToLower(name))
	e.mu.Unlock()
	e.version.Add(1)
	return nil
}

// FindByPrimaryKey returns the RowID of the row whose primary key equals v,
// or ErrRowNotFound.
func (t *Table) FindByPrimaryKey(v value.Value) (int64, error) {
	if t.schema.PrimaryKey == "" {
		return 0, fmt.Errorf("storage: table %s has no primary key", t.schema.Name)
	}
	ids, err := t.LookupEqual(t.schema.PrimaryKey, v)
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, fmt.Errorf("%w: %s pk %s", ErrRowNotFound, t.schema.Name, v)
	}
	return ids[0], nil
}
