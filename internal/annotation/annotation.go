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
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bdbms/internal/catalog"
	"bdbms/internal/rtree"
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
	return s.search(table, rtree.NewPoint(float64(col), float64(rowID)))
}

// IDsForRegion implements Store.
func (s *RectStore) IDsForRegion(reg Region) []int64 {
	return s.search(reg.Table, regionRect(reg))
}

// search returns the IDs of the rectangles of table's tree that intersect q.
// The read lock is held across the search: Add and Remove restructure the
// tree under the write lock.
func (s *RectStore) search(table string, q rtree.Rect) []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tree, ok := s.trees[strings.ToLower(table)]
	if !ok {
		return nil
	}
	var out []int64
	tree.Search(q, func(it rtree.Item) bool {
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
// Each cell's ID list is kept sorted, so lookups merge lists instead of
// sorting them.
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
				ids := s.cells[k]
				at, _ := slices.BinarySearch(ids, a.ID)
				s.cells[k] = slices.Insert(ids, at, a.ID)
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
	return unionSorted(nil, s.cells[cellKey{table: strings.ToLower(table), row: rowID, col: col}], nil)
}

// IDsForRegion implements Store. It looks the region's cells up one by one
// when they are fewer than the stored cells, and scans the stored cells
// otherwise.
func (s *CellStore) IDsForRegion(reg Region) []int64 {
	table := strings.ToLower(reg.Table)
	var out, spare []int64
	merge := func(ids []int64) {
		if len(ids) > 0 {
			spare = unionSorted(spare[:0], out, ids)
			out, spare = spare, out
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n := reg.CellCount(); n < int64(len(s.cells)) {
		for row := reg.RowStart; row <= reg.RowEnd; row++ {
			for col := reg.ColStart; col <= reg.ColEnd; col++ {
				merge(s.cells[cellKey{table: table, row: row, col: col}])
			}
		}
		return out
	}
	for k, ids := range s.cells {
		if k.table == table && reg.Covers(k.row, k.col) {
			merge(ids)
		}
	}
	return out
}

// unionSorted appends to dst the union of the sorted lists a and b, each ID
// once, in order.
func unionSorted(dst, a, b []int64) []int64 {
	put := func(id int64) {
		if len(dst) == 0 || dst[len(dst)-1] != id {
			dst = append(dst, id)
		}
	}
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			put(a[0])
			a = a[1:]
		} else {
			put(b[0])
			b = b[1:]
		}
	}
	for _, id := range a {
		put(id)
	}
	for _, id := range b {
		put(id)
	}
	return dst
}

// RecordCount implements Store.
func (s *CellStore) RecordCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

func dedupe(ids []int64) []int64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// --- manager -------------------------------------------------------------------

// TableResolver supplies what the manager needs from the storage engine: the
// schema facts about user tables, and the write-ahead log. *storage.Engine
// satisfies it via an adapter in the core package; tests can provide a stub.
type TableResolver interface {
	// ColumnCount returns the number of columns of the user table.
	ColumnCount(table string) (int, error)
	// MaxRowID returns the largest RowID currently assigned in the table
	// (0 when the table is empty).
	MaxRowID(table string) (int64, error)
	// WAL returns the log the manager appends its records to: the engine's,
	// so that annotation changes share the transaction frames of the row
	// changes beside them and roll back with them.
	WAL() *wal.Log
}

// Manager is the annotation manager. Every mutation is validated, appended to
// the write-ahead log as one record and then applied through that record
// kind's applier — the function recovery's redo calls too. Appliers never
// log.
type Manager struct {
	mu        sync.RWMutex
	cat       *catalog.Catalog
	resolver  TableResolver
	store     Store
	log       *wal.Log
	nextID    int64
	byID      map[int64]*Annotation
	byTable   map[string][]int64 // user table -> annotation IDs
	clock     func() time.Time
	systemTag string // author prefix treated as "the system" for system-managed tables
	// gen counts the changes applied to the annotation set. Every applier
	// bumps it after its change, under m.mu, so a reader that loads it
	// before a lookup and sees it unchanged afterwards knows the lookup's
	// answer still stands.
	gen atomic.Uint64
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
		log:       resolver.WAL(),
		clock:     time.Now,
		systemTag: "system",
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Generation returns the count of changes applied to the annotation set so
// far: adds, removals, archive flips and annotation-table drops. A lookup
// made after loading generation g answers for every later moment at which
// Generation still returns g.
func (m *Manager) Generation() uint64 { return m.gen.Load() }

// StoreName returns the active storage scheme name.
func (m *Manager) StoreName() string { return m.store.Name() }

// WAL returns the write-ahead log the manager appends to.
func (m *Manager) WAL() *wal.Log { return m.log }

// CreateAnnotationTable implements CREATE ANNOTATION TABLE (Figure 4).
func (m *Manager) CreateAnnotationTable(userTable, name, category string, systemManaged bool) error {
	def := &catalog.AnnotationTable{
		Name:          name,
		UserTable:     userTable,
		Category:      category,
		SystemManaged: systemManaged,
	}
	if name == "" {
		return errors.New("annotation: empty annotation table name")
	}
	if !m.cat.HasTable(userTable) {
		return fmt.Errorf("%w: %s", catalog.ErrTableNotFound, userTable)
	}
	if _, err := m.cat.AnnotationTable(userTable, name); err == nil {
		return fmt.Errorf("%w: %s on %s", catalog.ErrAnnotationTableExists, name, userTable)
	}
	payload, err := json.Marshal(def)
	if err != nil {
		return err
	}
	if _, err := m.log.Append(wal.KindCreateAnnTable, userTable, payload); err != nil {
		return err
	}
	return m.ApplyCreateAnnotationTable(def)
}

// AnnTableRecord is the WAL payload of CREATE and DROP ANNOTATION TABLE: the
// definition, and for a drop the annotations it deletes, so that undoing the
// drop can put them back. A drop record in an older log carries only Name and
// UserTable; its undo restores the bare definition.
type AnnTableRecord struct {
	catalog.AnnotationTable
	Annotations []*Annotation `json:"annotations,omitempty"`
}

// DropAnnotationTable implements DROP ANNOTATION TABLE: the definition and
// every annotation stored in it are removed.
func (m *Manager) DropAnnotationTable(userTable, name string) error {
	def, err := m.cat.AnnotationTable(userTable, name)
	if err != nil {
		return err
	}
	rec := AnnTableRecord{AnnotationTable: *def}
	m.mu.RLock()
	for _, id := range m.byTable[strings.ToLower(userTable)] {
		if a := m.byID[id]; strings.EqualFold(a.AnnTable, name) {
			rec.Annotations = append(rec.Annotations, a)
		}
	}
	payload, err := json.Marshal(rec)
	m.mu.RUnlock()
	if err != nil {
		return err
	}
	if _, err := m.log.Append(wal.KindDropAnnTable, userTable, payload); err != nil {
		return err
	}
	return m.ApplyDropAnnotationTable(userTable, name)
}

// ApplyCreateAnnotationTable registers an annotation table definition,
// tolerating an existing one: the applier of a CREATE ANNOTATION TABLE
// record, and of the undo of a drop.
func (m *Manager) ApplyCreateAnnotationTable(def *catalog.AnnotationTable) error {
	err := m.cat.CreateAnnotationTable(def)
	if errors.Is(err, catalog.ErrAnnotationTableExists) {
		return nil
	}
	return err
}

// ApplyDropAnnotationTable removes the definition, tolerating an absent one,
// and every annotation stored in the table: the applier of a DROP ANNOTATION
// TABLE record, and of the undo of a create.
func (m *Manager) ApplyDropAnnotationTable(userTable, name string) error {
	if err := m.cat.DropAnnotationTable(userTable, name); err != nil && !errors.Is(err, catalog.ErrAnnotationTableNotFound) {
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
	m.gen.Add(1)
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
	if _, err := m.log.Append(wal.KindAnnotation, userTable, payload); err != nil {
		return nil, err
	}
	m.applyAdd(a)
	return a, nil
}

// Remove deletes a stored annotation by ID — the undo of an ADD ANNOTATION
// record. An absent ID is tolerated.
func (m *Manager) Remove(id int64) {
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
	m.gen.Add(1)
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
	m.gen.Add(1)
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
	// Log the resolved ID set (not the region/time query): replay must flip
	// exactly the annotations the original command flipped, independent of
	// replay-time clocks. Every one of them flips, so its prior flag is the
	// opposite of the new one; its prior ArchivedAt rides along for the undo.
	r := ArchiveRecord{Archived: archived, At: m.clock()}
	for _, a := range candidates {
		if tr.contains(a.CreatedAt) && a.Archived != archived {
			r.IDs = append(r.IDs, a.ID)
			r.Prior = append(r.Prior, a.ArchivedAt)
		}
	}
	if len(r.IDs) == 0 {
		return 0, nil
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	if _, err := m.log.Append(wal.KindAnnArchive, userTable, payload); err != nil {
		return 0, err
	}
	m.applyArchiveLocked(r)
	return len(r.IDs), nil
}

// ArchiveRecord is the WAL payload of one ARCHIVE/RESTORE ANNOTATION: the
// annotations it flipped, the flag they got, the archive time, and each
// one's ArchivedAt before the command (absent in older logs, whose undo
// restores the flag only).
type ArchiveRecord struct {
	IDs      []int64     `json:"ids"`
	Archived bool        `json:"archived"`
	At       time.Time   `json:"at"`
	Prior    []time.Time `json:"prior,omitempty"`
}

// ApplyArchive gives the annotations r names r's archived flag, stamping
// ArchivedAt on an archive: the applier of an ARCHIVE/RESTORE record.
func (m *Manager) ApplyArchive(r ArchiveRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyArchiveLocked(r)
}

func (m *Manager) applyArchiveLocked(r ArchiveRecord) {
	for _, id := range r.IDs {
		if a, ok := m.byID[id]; ok {
			a.Archived = r.Archived
			if r.Archived {
				a.ArchivedAt = r.At
			}
		}
	}
	m.gen.Add(1)
}

// UndoArchive puts the annotations r names back as they were before it: the
// opposite flag and the prior ArchivedAt the record carries.
func (m *Manager) UndoArchive(r ArchiveRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, id := range r.IDs {
		if a, ok := m.byID[id]; ok {
			a.Archived = !r.Archived
			if i < len(r.Prior) {
				a.ArchivedAt = r.Prior[i]
			}
		}
	}
	m.gen.Add(1)
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
func DecodeArchivePayload(payload []byte) (ArchiveRecord, error) {
	var r ArchiveRecord
	if err := json.Unmarshal(payload, &r); err != nil {
		return r, fmt.Errorf("annotation: decode archive payload: %w", err)
	}
	return r, nil
}

// DecodeAnnTablePayload parses the WAL payload of a KindCreateAnnTable or
// KindDropAnnTable record.
func DecodeAnnTablePayload(payload []byte) (AnnTableRecord, error) {
	var r AnnTableRecord
	if err := json.Unmarshal(payload, &r); err != nil {
		return r, fmt.Errorf("annotation: decode annotation-table payload: %w", err)
	}
	return r, nil
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

// ApplyAdd installs a logged annotation with its original ID, author and
// timestamps — the redo of an ADD ANNOTATION record, and part of the undo of
// a DROP ANNOTATION TABLE. An ID already present is left as it is.
func (m *Manager) ApplyAdd(a *Annotation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byID[a.ID]; ok {
		return
	}
	m.applyAdd(a)
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
