// Package annotation implements bdbms's annotation manager (Section 3 of the
// paper): annotations and provenance treated as first-class objects, attached
// to data at multiple granularities (table, column, tuple, cell), stored in
// named annotation tables per user relation, archived and restored over time
// ranges, and retrieved efficiently for propagation through A-SQL queries.
//
// Two storage schemes are provided, mirroring the design discussion around
// Figure 5:
//
//   - RectStore (the default) stores each annotation as a small set of
//     rectangles in (column, RowID) space, indexed by an R-tree. An
//     annotation over an entire column or a contiguous range of tuples is a
//     single record regardless of how many cells it covers.
//   - CellStore is the naive per-cell scheme of Figure 3: one record per
//     covered cell, like adding an Ann_X column next to every data column.
//
// Experiment E5 compares the two.
package annotation

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bdbms/internal/catalog"
	"bdbms/internal/rtree"
	"bdbms/internal/undo"
	"bdbms/internal/wal"
)

// Errors returned by the annotation manager.
var (
	// ErrNoAnnotationTable is returned when adding to an annotation table that
	// was never created with CREATE ANNOTATION TABLE.
	ErrNoAnnotationTable = errors.New("annotation: annotation table does not exist")
	// ErrEmptyRegion is returned when adding an annotation with no region.
	ErrEmptyRegion = errors.New("annotation: empty region set")
	// ErrSystemManaged is returned when a non-system caller writes to a
	// system-managed annotation table (provenance, Section 4).
	ErrSystemManaged = errors.New("annotation: annotation table is system managed")
)

// Region is a rectangle of cells in a user table: columns [ColStart, ColEnd]
// by rows [RowStart, RowEnd], both inclusive. Column coordinates are ordinal
// positions in the table schema; row coordinates are storage RowIDs.
type Region struct {
	Table    string
	ColStart int
	ColEnd   int
	RowStart int64
	RowEnd   int64
}

// Covers reports whether the region covers the cell (rowID, col).
func (r Region) Covers(rowID int64, col int) bool {
	return col >= r.ColStart && col <= r.ColEnd && rowID >= r.RowStart && rowID <= r.RowEnd
}

// CellCount returns the number of cells the region covers.
func (r Region) CellCount() int64 {
	cols := int64(r.ColEnd - r.ColStart + 1)
	rows := r.RowEnd - r.RowStart + 1
	if cols <= 0 || rows <= 0 {
		return 0
	}
	return cols * rows
}

// String renders the region for diagnostics.
func (r Region) String() string {
	return fmt.Sprintf("%s[cols %d-%d, rows %d-%d]", r.Table, r.ColStart, r.ColEnd, r.RowStart, r.RowEnd)
}

// Annotation is one annotation record with the regions it covers.
type Annotation struct {
	// ID is the annotation's unique identifier.
	ID int64
	// AnnTable is the annotation table (category) the annotation belongs to.
	AnnTable string
	// UserTable is the user table the annotation is attached to.
	UserTable string
	// Body is the annotation value; by convention an XML fragment
	// ("<Annotation>...</Annotation>").
	Body string
	// Author is the user or program that added the annotation.
	Author string
	// CreatedAt is the timestamp assigned when the annotation was added.
	CreatedAt time.Time
	// Archived marks annotations hidden from propagation (Section 3.3).
	Archived bool
	// ArchivedAt is when the annotation was last archived.
	ArchivedAt time.Time
	// Regions are the rectangles of cells the annotation covers.
	Regions []Region
}

// CoversCell reports whether any region of the annotation covers the cell.
func (a *Annotation) CoversCell(rowID int64, col int) bool {
	for _, r := range a.Regions {
		if r.Covers(rowID, col) {
			return true
		}
	}
	return false
}

// PlainBody returns the body with a single enclosing <Annotation> element
// stripped, for display.
func (a *Annotation) PlainBody() string {
	s := strings.TrimSpace(a.Body)
	s = strings.TrimPrefix(s, "<Annotation>")
	s = strings.TrimSuffix(s, "</Annotation>")
	return strings.TrimSpace(s)
}

// Store is the pluggable annotation storage scheme.
type Store interface {
	// Name identifies the scheme ("rectangle" or "cell").
	Name() string
	// Add registers the annotation's regions.
	Add(a *Annotation)
	// Remove unregisters the annotation (used by DROP ANNOTATION TABLE).
	Remove(a *Annotation)
	// IDsForCell returns the IDs of annotations covering the cell.
	IDsForCell(table string, rowID int64, col int) []int64
	// IDsForRegion returns the IDs of annotations intersecting the region.
	IDsForRegion(reg Region) []int64
	// RecordCount returns the number of physical records the scheme stores,
	// the storage measure of experiment E5.
	RecordCount() int
}

// --- rectangle store ----------------------------------------------------------

// RectStore stores one record per (annotation, region) rectangle, indexed by
// an R-tree per user table (Figure 5).
type RectStore struct {
	mu    sync.RWMutex
	trees map[string]*rtree.Tree
	count int
}

// NewRectStore returns an empty rectangle-based store.
func NewRectStore() *RectStore {
	return &RectStore{trees: make(map[string]*rtree.Tree)}
}

// Name implements Store.
func (s *RectStore) Name() string { return "rectangle" }

func regionRect(r Region) rtree.Rect {
	return rtree.Rect{
		MinX: float64(r.ColStart), MaxX: float64(r.ColEnd),
		MinY: float64(r.RowStart), MaxY: float64(r.RowEnd),
	}
}

// Add implements Store.
func (s *RectStore) Add(a *Annotation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range a.Regions {
		key := strings.ToLower(r.Table)
		tree, ok := s.trees[key]
		if !ok {
			tree = rtree.New()
			s.trees[key] = tree
		}
		if err := tree.Insert(regionRect(r), a.ID); err == nil {
			s.count++
		}
	}
}

// Remove implements Store.
func (s *RectStore) Remove(a *Annotation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range a.Regions {
		tree, ok := s.trees[strings.ToLower(r.Table)]
		if !ok {
			continue
		}
		if tree.Delete(regionRect(r), func(data interface{}) bool { return data.(int64) == a.ID }) {
			s.count--
		}
	}
}

// IDsForCell implements Store.
func (s *RectStore) IDsForCell(table string, rowID int64, col int) []int64 {
	s.mu.RLock()
	tree, ok := s.trees[strings.ToLower(table)]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	var out []int64
	tree.Search(rtree.NewPoint(float64(col), float64(rowID)), func(it rtree.Item) bool {
		out = append(out, it.Data.(int64))
		return true
	})
	return dedupe(out)
}

// IDsForRegion implements Store.
func (s *RectStore) IDsForRegion(reg Region) []int64 {
	s.mu.RLock()
	tree, ok := s.trees[strings.ToLower(reg.Table)]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	var out []int64
	tree.Search(regionRect(reg), func(it rtree.Item) bool {
		out = append(out, it.Data.(int64))
		return true
	})
	return dedupe(out)
}

// RecordCount implements Store.
func (s *RectStore) RecordCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// --- per-cell store -----------------------------------------------------------

type cellKey struct {
	table string
	row   int64
	col   int
}

// CellStore is the naive scheme of Figure 3: one record per covered cell.
type CellStore struct {
	mu    sync.RWMutex
	cells map[cellKey][]int64
	count int
}

// NewCellStore returns an empty per-cell store.
func NewCellStore() *CellStore {
	return &CellStore{cells: make(map[cellKey][]int64)}
}

// Name implements Store.
func (s *CellStore) Name() string { return "cell" }

// Add implements Store.
func (s *CellStore) Add(a *Annotation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range a.Regions {
		table := strings.ToLower(r.Table)
		for row := r.RowStart; row <= r.RowEnd; row++ {
			for col := r.ColStart; col <= r.ColEnd; col++ {
				k := cellKey{table: table, row: row, col: col}
				s.cells[k] = append(s.cells[k], a.ID)
				s.count++
			}
		}
	}
}

// Remove implements Store.
func (s *CellStore) Remove(a *Annotation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range a.Regions {
		table := strings.ToLower(r.Table)
		for row := r.RowStart; row <= r.RowEnd; row++ {
			for col := r.ColStart; col <= r.ColEnd; col++ {
				k := cellKey{table: table, row: row, col: col}
				ids := s.cells[k]
				for i, id := range ids {
					if id == a.ID {
						s.cells[k] = append(ids[:i], ids[i+1:]...)
						s.count--
						break
					}
				}
				if len(s.cells[k]) == 0 {
					delete(s.cells, k)
				}
			}
		}
	}
}

// IDsForCell implements Store.
func (s *CellStore) IDsForCell(table string, rowID int64, col int) []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.cells[cellKey{table: strings.ToLower(table), row: rowID, col: col}]
	return dedupe(append([]int64(nil), ids...))
}

// IDsForRegion implements Store.
func (s *CellStore) IDsForRegion(reg Region) []int64 {
	var out []int64
	s.mu.RLock()
	for k, ids := range s.cells {
		if k.table != strings.ToLower(reg.Table) {
			continue
		}
		if reg.Covers(k.row, k.col) {
			out = append(out, ids...)
		}
	}
	s.mu.RUnlock()
	return dedupe(out)
}

// RecordCount implements Store.
func (s *CellStore) RecordCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

func dedupe(ids []int64) []int64 {
	if len(ids) <= 1 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// --- manager -------------------------------------------------------------------

// TableResolver supplies the schema facts the manager needs about user tables.
// *storage.Engine satisfies it via an adapter in the core package; tests can
// provide a stub.
type TableResolver interface {
	// ColumnCount returns the number of columns of the user table.
	ColumnCount(table string) (int, error)
	// MaxRowID returns the largest RowID currently assigned in the table
	// (0 when the table is empty).
	MaxRowID(table string) (int64, error)
}

// Logger is where the manager appends its logical WAL records. *wal.Log
// satisfies it; a nil logger disables logging (memory-only databases, and
// recovery while annotation mutations are replayed from the log).
type Logger interface {
	Append(kind wal.Kind, table string, payload []byte) (uint64, error)
}

// Manager is the annotation manager.
type Manager struct {
	mu        sync.RWMutex
	cat       *catalog.Catalog
	resolver  TableResolver
	store     Store
	logger    Logger
	undo      *undo.Log
	nextID    int64
	byID      map[int64]*Annotation
	byTable   map[string][]int64 // user table -> annotation IDs
	clock     func() time.Time
	systemTag string // author prefix treated as "the system" for system-managed tables
}

// Option customises manager construction.
type Option func(*Manager)

// WithStore selects the storage scheme (default: RectStore).
func WithStore(s Store) Option { return func(m *Manager) { m.store = s } }

// WithClock overrides the time source (tests).
func WithClock(clock func() time.Time) Option { return func(m *Manager) { m.clock = clock } }

// WithSystemTag sets the author prefix allowed to write system-managed
// annotation tables (default "system").
func WithSystemTag(tag string) Option { return func(m *Manager) { m.systemTag = tag } }

// NewManager builds an annotation manager over the given catalog and table
// resolver.
func NewManager(cat *catalog.Catalog, resolver TableResolver, opts ...Option) *Manager {
	m := &Manager{
		cat:       cat,
		resolver:  resolver,
		store:     NewRectStore(),
		nextID:    1,
		byID:      make(map[int64]*Annotation),
		byTable:   make(map[string][]int64),
		clock:     time.Now,
		systemTag: "system",
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// StoreName returns the active storage scheme name.
func (m *Manager) StoreName() string { return m.store.Name() }

// SetLogger wires the manager to a WAL. Recovery constructs the manager
// without one, replays logged mutations, then installs the log so new
// mutations are recorded.
func (m *Manager) SetLogger(l Logger) { m.logger = l }

// SetUndo installs (or, with nil, clears) the open transaction's undo log:
// while installed, every annotation mutation pushes a compensating closure.
// Like the storage engine's hook, it is only touched by the write frame
// holding the storage.ScopeWAL latch.
func (m *Manager) SetUndo(u *undo.Log) { m.undo = u }

// pushUndo records a compensating action when a transaction is open.
func (m *Manager) pushUndo(fn undo.Func) {
	if m.undo != nil {
		m.undo.Push(fn)
	}
}

// logOp appends one logical record when a logger is wired.
func (m *Manager) logOp(kind wal.Kind, table string, payload []byte) error {
	if m.logger == nil {
		return nil
	}
	_, err := m.logger.Append(kind, table, payload)
	return err
}

// CreateAnnotationTable implements CREATE ANNOTATION TABLE (Figure 4).
func (m *Manager) CreateAnnotationTable(userTable, name, category string, systemManaged bool) error {
	def := &catalog.AnnotationTable{
		Name:          name,
		UserTable:     userTable,
		Category:      category,
		SystemManaged: systemManaged,
	}
	if err := m.cat.CreateAnnotationTable(def); err != nil {
		return err
	}
	payload, err := json.Marshal(def)
	if err == nil {
		err = m.logOp(wal.KindCreateAnnTable, userTable, payload)
	}
	if err != nil {
		_ = m.cat.DropAnnotationTable(userTable, name)
		return err
	}
	m.pushUndo(func() error {
		err := m.cat.DropAnnotationTable(userTable, name)
		if errors.Is(err, catalog.ErrAnnotationTableNotFound) {
			return nil
		}
		return err
	})
	return nil
}

// DropAnnotationTable implements DROP ANNOTATION TABLE: the definition and
// every annotation stored in it are removed.
func (m *Manager) DropAnnotationTable(userTable, name string) error {
	def, err := m.cat.AnnotationTable(userTable, name)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(&catalog.AnnotationTable{Name: name, UserTable: userTable})
	if err != nil {
		return err
	}
	// Before-image for the undo log: the definition plus every annotation
	// the drop is about to delete.
	var dropped []*Annotation
	if m.undo != nil {
		m.mu.RLock()
		for _, id := range m.byTable[strings.ToLower(userTable)] {
			if a := m.byID[id]; a != nil && strings.EqualFold(a.AnnTable, name) {
				dropped = append(dropped, a)
			}
		}
		m.mu.RUnlock()
	}
	if err := m.logOp(wal.KindDropAnnTable, userTable, payload); err != nil {
		return err
	}
	if err := m.applyDropAnnotationTable(userTable, name); err != nil {
		return err
	}
	defCopy := *def
	m.pushUndo(func() error {
		if err := m.RecoverCreateAnnotationTable(&defCopy); err != nil {
			return err
		}
		for _, a := range dropped {
			m.RecoverAnnotation(a)
		}
		return nil
	})
	return nil
}

// applyDropAnnotationTable removes the definition and the stored annotations
// without logging.
func (m *Manager) applyDropAnnotationTable(userTable, name string) error {
	if err := m.cat.DropAnnotationTable(userTable, name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(userTable)
	kept := m.byTable[key][:0]
	for _, id := range m.byTable[key] {
		a := m.byID[id]
		if strings.EqualFold(a.AnnTable, name) {
			m.store.Remove(a)
			delete(m.byID, id)
			continue
		}
		kept = append(kept, id)
	}
	m.byTable[key] = kept
	return nil
}

// Add implements ADD ANNOTATION (Figure 6a): body is stored in the named
// annotation table, attached to the given regions.
func (m *Manager) Add(userTable, annTable, body, author string, regions []Region) (*Annotation, error) {
	def, err := m.cat.AnnotationTable(userTable, annTable)
	if err != nil {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoAnnotationTable, annTable, userTable)
	}
	if def.SystemManaged && !strings.HasPrefix(strings.ToLower(author), m.systemTag) {
		return nil, fmt.Errorf("%w: %s (author %q)", ErrSystemManaged, annTable, author)
	}
	if len(regions) == 0 {
		return nil, ErrEmptyRegion
	}
	for i := range regions {
		if regions[i].Table == "" {
			regions[i].Table = userTable
		}
		if regions[i].CellCount() <= 0 {
			return nil, fmt.Errorf("%w: region %s covers no cells", ErrEmptyRegion, regions[i])
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	a := &Annotation{
		ID:        m.nextID,
		AnnTable:  def.Name,
		UserTable: userTable,
		Body:      body,
		Author:    author,
		CreatedAt: m.clock(),
		Regions:   regions,
	}
	// Write-ahead order: the fully-assigned annotation (ID, author, creation
	// time, regions) is logged before the in-memory apply, so replay can
	// reconstruct it byte for byte.
	payload, err := json.Marshal(a)
	if err != nil {
		return nil, fmt.Errorf("annotation: encode: %w", err)
	}
	if err := m.logOp(wal.KindAnnotation, userTable, payload); err != nil {
		return nil, err
	}
	m.applyAdd(a)
	m.pushUndo(func() error { m.RecoverRemove(a.ID); return nil })
	return a, nil
}

// RecoverRemove deletes a stored annotation by ID — the undo of Add. An
// absent ID is tolerated.
func (m *Manager) RecoverRemove(id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byID[id]
	if !ok {
		return
	}
	m.store.Remove(a)
	delete(m.byID, id)
	key := strings.ToLower(a.UserTable)
	kept := m.byTable[key][:0]
	for _, other := range m.byTable[key] {
		if other != id {
			kept = append(kept, other)
		}
	}
	m.byTable[key] = kept
}

// applyAdd registers an annotation in the maps and the storage scheme. The
// caller must hold m.mu.
func (m *Manager) applyAdd(a *Annotation) {
	if a.ID >= m.nextID {
		m.nextID = a.ID + 1
	}
	m.byID[a.ID] = a
	key := strings.ToLower(a.UserTable)
	m.byTable[key] = append(m.byTable[key], a.ID)
	m.store.Add(a)
}

// Get returns the annotation with the given ID, or nil.
func (m *Manager) Get(id int64) *Annotation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.byID[id]
}

// Count returns the number of annotations attached to a user table
// (archived included).
func (m *Manager) Count(userTable string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byTable[strings.ToLower(userTable)])
}

// StorageRecords returns the number of physical records in the storage
// scheme (E5's storage measure).
func (m *Manager) StorageRecords() int { return m.store.RecordCount() }

// Filter restricts which annotations are retrieved.
type Filter struct {
	// AnnTables restricts to the named annotation tables; empty means all.
	AnnTables []string
	// IncludeArchived includes archived annotations when true.
	IncludeArchived bool
	// Author restricts to annotations by the given author ("" means any).
	Author string
}

func (f Filter) wantsTable(name string) bool {
	if len(f.AnnTables) == 0 {
		return true
	}
	for _, t := range f.AnnTables {
		if strings.EqualFold(t, name) {
			return true
		}
	}
	return false
}

func (f Filter) matches(a *Annotation) bool {
	if !f.wantsTable(a.AnnTable) {
		return false
	}
	if a.Archived && !f.IncludeArchived {
		return false
	}
	if f.Author != "" && !strings.EqualFold(f.Author, a.Author) {
		return false
	}
	return true
}

// ForCell returns the annotations covering cell (rowID, col) of the user
// table, filtered by f, sorted by ID.
func (m *Manager) ForCell(userTable string, rowID int64, col int, f Filter) []*Annotation {
	ids := m.store.IDsForCell(userTable, rowID, col)
	return m.resolve(ids, f)
}

// ForRow returns the annotations covering any cell of the given row.
func (m *Manager) ForRow(userTable string, rowID int64, f Filter) []*Annotation {
	numCols, err := m.resolver.ColumnCount(userTable)
	if err != nil || numCols == 0 {
		numCols = 1
	}
	ids := m.store.IDsForRegion(Region{
		Table: userTable, ColStart: 0, ColEnd: numCols - 1, RowStart: rowID, RowEnd: rowID,
	})
	return m.resolve(ids, f)
}

// ForRegion returns the annotations intersecting the region.
func (m *Manager) ForRegion(reg Region, f Filter) []*Annotation {
	return m.resolve(m.store.IDsForRegion(reg), f)
}

// ForTable returns every annotation attached to the user table, filtered by f.
func (m *Manager) ForTable(userTable string, f Filter) []*Annotation {
	m.mu.RLock()
	ids := append([]int64(nil), m.byTable[strings.ToLower(userTable)]...)
	m.mu.RUnlock()
	return m.resolve(ids, f)
}

func (m *Manager) resolve(ids []int64, f Filter) []*Annotation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Annotation
	for _, id := range ids {
		a, ok := m.byID[id]
		if !ok || !f.matches(a) {
			continue
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TimeRange bounds ARCHIVE/RESTORE ANNOTATION to annotations created between
// From and To (zero values mean unbounded).
type TimeRange struct {
	From time.Time
	To   time.Time
}

func (tr TimeRange) contains(t time.Time) bool {
	if !tr.From.IsZero() && t.Before(tr.From) {
		return false
	}
	if !tr.To.IsZero() && t.After(tr.To) {
		return false
	}
	return true
}

// Archive implements ARCHIVE ANNOTATION (Figure 6b): annotations in the named
// annotation tables, created within tr, attached to cells intersecting any of
// the regions (nil regions means the whole table) are marked archived.
// It returns the number of annotations archived.
func (m *Manager) Archive(userTable string, annTables []string, tr TimeRange, regions []Region) (int, error) {
	return m.setArchived(userTable, annTables, tr, regions, true)
}

// Restore implements RESTORE ANNOTATION (Figure 6c), the inverse of Archive.
func (m *Manager) Restore(userTable string, annTables []string, tr TimeRange, regions []Region) (int, error) {
	return m.setArchived(userTable, annTables, tr, regions, false)
}

func (m *Manager) setArchived(userTable string, annTables []string, tr TimeRange, regions []Region, archived bool) (int, error) {
	f := Filter{AnnTables: annTables, IncludeArchived: true}
	var candidates []*Annotation
	if len(regions) == 0 {
		candidates = m.ForTable(userTable, f)
	} else {
		seen := map[int64]bool{}
		for _, reg := range regions {
			if reg.Table == "" {
				reg.Table = userTable
			}
			for _, a := range m.ForRegion(reg, f) {
				if !seen[a.ID] {
					seen[a.ID] = true
					candidates = append(candidates, a)
				}
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock()
	var changed []int64
	for _, a := range candidates {
		if !tr.contains(a.CreatedAt) || a.Archived == archived {
			continue
		}
		changed = append(changed, a.ID)
	}
	if len(changed) == 0 {
		return 0, nil
	}
	// Log the resolved ID set (not the region/time query): replay must flip
	// exactly the annotations the original command flipped, independent of
	// replay-time clocks. Write-ahead order — a failed append leaves the
	// in-memory state untouched and surfaces the error.
	payload, err := json.Marshal(archiveRecord{IDs: changed, Archived: archived, At: now})
	if err == nil {
		err = m.logOp(wal.KindAnnArchive, userTable, payload)
	}
	if err != nil {
		return 0, err
	}
	// Before-image for the undo log: the archived flag and timestamp of each
	// flipped annotation (every candidate in changed flips, by construction).
	var before []archiveSnap
	if m.undo != nil {
		for _, id := range changed {
			if a := m.byID[id]; a != nil {
				before = append(before, archiveSnap{id: id, archived: a.Archived, at: a.ArchivedAt})
			}
		}
	}
	m.applyArchive(changed, archived, now)
	m.pushUndo(func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, s := range before {
			if a, ok := m.byID[s.id]; ok {
				a.Archived = s.archived
				a.ArchivedAt = s.at
			}
		}
		return nil
	})
	return len(changed), nil
}

// archiveSnap is the per-annotation before-image of an ARCHIVE/RESTORE.
type archiveSnap struct {
	id       int64
	archived bool
	at       time.Time
}

// archiveRecord is the WAL payload of one ARCHIVE/RESTORE ANNOTATION.
type archiveRecord struct {
	IDs      []int64   `json:"ids"`
	Archived bool      `json:"archived"`
	At       time.Time `json:"at"`
}

// applyArchive flips the archived flag of the given annotations. The caller
// must hold m.mu.
func (m *Manager) applyArchive(ids []int64, archived bool, at time.Time) {
	for _, id := range ids {
		a, ok := m.byID[id]
		if !ok {
			continue
		}
		a.Archived = archived
		if archived {
			a.ArchivedAt = at
		}
	}
}

// --- durability ---------------------------------------------------------------

// DecodeAnnotationPayload parses the WAL payload of a KindAnnotation record.
func DecodeAnnotationPayload(payload []byte) (*Annotation, error) {
	var a Annotation
	if err := json.Unmarshal(payload, &a); err != nil {
		return nil, fmt.Errorf("annotation: decode WAL payload: %w", err)
	}
	return &a, nil
}

// DecodeArchivePayload parses the WAL payload of a KindAnnArchive record.
func DecodeArchivePayload(payload []byte) (ids []int64, archived bool, at time.Time, err error) {
	var rec archiveRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, false, time.Time{}, fmt.Errorf("annotation: decode archive payload: %w", err)
	}
	return rec.IDs, rec.Archived, rec.At, nil
}

// Snapshot returns a deep copy of every annotation (archived included) plus
// the next annotation ID, the state a checkpoint persists.
func (m *Manager) Snapshot() ([]*Annotation, int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Annotation, 0, len(m.byID))
	for _, a := range m.byID {
		cp := *a
		cp.Regions = append([]Region(nil), a.Regions...)
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, m.nextID
}

// RestoreSnapshot loads a checkpointed annotation set into an empty manager.
func (m *Manager) RestoreSnapshot(anns []*Annotation, nextID int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range anns {
		m.applyAdd(a)
	}
	if nextID > m.nextID {
		m.nextID = nextID
	}
}

// RecoverAnnotation replays a logged ADD ANNOTATION: the annotation is
// installed with its original ID, author and timestamps. Replaying an ID
// that is already present (a checkpoint raced the crash) is a no-op.
func (m *Manager) RecoverAnnotation(a *Annotation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byID[a.ID]; ok {
		return
	}
	m.applyAdd(a)
}

// RecoverArchive replays a logged ARCHIVE/RESTORE state change.
func (m *Manager) RecoverArchive(ids []int64, archived bool, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyArchive(ids, archived, at)
}

// RecoverCreateAnnotationTable replays CREATE ANNOTATION TABLE, tolerating
// an existing definition.
func (m *Manager) RecoverCreateAnnotationTable(def *catalog.AnnotationTable) error {
	err := m.cat.CreateAnnotationTable(def)
	if errors.Is(err, catalog.ErrAnnotationTableExists) {
		return nil
	}
	return err
}

// RecoverDropAnnotationTable replays DROP ANNOTATION TABLE, tolerating an
// absent definition.
func (m *Manager) RecoverDropAnnotationTable(userTable, name string) error {
	err := m.applyDropAnnotationTable(userTable, name)
	if errors.Is(err, catalog.ErrAnnotationTableNotFound) {
		return nil
	}
	return err
}

// --- region helpers -------------------------------------------------------------

// CellRegion builds a region covering a single cell.
func CellRegion(table string, rowID int64, col int) Region {
	return Region{Table: table, ColStart: col, ColEnd: col, RowStart: rowID, RowEnd: rowID}
}

// RowRegion builds a region covering an entire row (all numCols columns).
func RowRegion(table string, rowID int64, numCols int) Region {
	return Region{Table: table, ColStart: 0, ColEnd: numCols - 1, RowStart: rowID, RowEnd: rowID}
}

// RowsRegion builds a region covering all columns of rows [from, to].
func RowsRegion(table string, from, to int64, numCols int) Region {
	return Region{Table: table, ColStart: 0, ColEnd: numCols - 1, RowStart: from, RowEnd: to}
}

// ColumnRegion builds a region covering column col of rows [1, maxRowID].
func ColumnRegion(table string, col int, maxRowID int64) Region {
	return Region{Table: table, ColStart: col, ColEnd: col, RowStart: 1, RowEnd: maxRowID}
}

// TableRegion builds a region covering the whole table as it exists now.
func TableRegion(table string, numCols int, maxRowID int64) Region {
	return Region{Table: table, ColStart: 0, ColEnd: numCols - 1, RowStart: 1, RowEnd: maxRowID}
}

// RegionsForRows builds minimal rectangle regions covering the given columns
// of the given (possibly non-contiguous) RowIDs: consecutive runs of RowIDs
// collapse into single rectangles, which is how the ADD ANNOTATION command
// turns a SELECT result into compact regions.
func RegionsForRows(table string, rowIDs []int64, colStart, colEnd int) []Region {
	if len(rowIDs) == 0 {
		return nil
	}
	ids := append([]int64(nil), rowIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Region
	runStart, prev := ids[0], ids[0]
	flush := func(end int64) {
		out = append(out, Region{
			Table: table, ColStart: colStart, ColEnd: colEnd, RowStart: runStart, RowEnd: end,
		})
	}
	for _, id := range ids[1:] {
		if id == prev { // duplicate
			continue
		}
		if id == prev+1 {
			prev = id
			continue
		}
		flush(prev)
		runStart, prev = id, id
	}
	flush(prev)
	return out
}
