// Package catalog maintains the schema metadata of a bdbms database: user
// tables and their columns, the annotation tables attached to each user table
// (Section 3.1 of the paper), and content-approval settings. The catalog can
// be serialised to JSON so a database directory survives restarts.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"bdbms/internal/value"
)

// Errors returned by the catalog.
var (
	// ErrTableExists is returned when creating a table that already exists.
	ErrTableExists = errors.New("catalog: table already exists")
	// ErrTableNotFound is returned when referencing an unknown table.
	ErrTableNotFound = errors.New("catalog: table not found")
	// ErrColumnNotFound is returned when referencing an unknown column.
	ErrColumnNotFound = errors.New("catalog: column not found")
	// ErrAnnotationTableExists is returned when creating a duplicate annotation table.
	ErrAnnotationTableExists = errors.New("catalog: annotation table already exists")
	// ErrAnnotationTableNotFound is returned when referencing an unknown annotation table.
	ErrAnnotationTableNotFound = errors.New("catalog: annotation table not found")
	// ErrSchemaMismatch is returned when a row does not match its table schema.
	ErrSchemaMismatch = errors.New("catalog: row does not match schema")
)

// Column describes one column of a user table.
type Column struct {
	// Name is the column name (case-insensitive for lookups, stored as given).
	Name string `json:"name"`
	// Type is the column's value type.
	Type value.Type `json:"type"`
	// NotNull forbids NULL values when true.
	NotNull bool `json:"not_null,omitempty"`
}

// Schema describes a user table.
type Schema struct {
	// Name is the table name.
	Name string `json:"name"`
	// Columns are the table's columns in declaration order.
	Columns []Column `json:"columns"`
	// PrimaryKey is the name of the primary key column ("" when none).
	PrimaryKey string `json:"primary_key,omitempty"`
}

// ColumnIndex returns the position of the named column, or -1.
// Lookup is case-insensitive.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Validate checks that the schema can define a table: a name, at least one
// column, no duplicate column names, and a primary key (if any) among them.
func (s *Schema) Validate() error {
	if s == nil || s.Name == "" {
		return errors.New("catalog: empty schema")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, col := range s.Columns {
		k := key(col.Name)
		if seen[k] {
			return fmt.Errorf("catalog: duplicate column %s in table %s", col.Name, s.Name)
		}
		seen[k] = true
	}
	if s.PrimaryKey != "" && s.ColumnIndex(s.PrimaryKey) < 0 {
		return fmt.Errorf("%w: primary key %s", ErrColumnNotFound, s.PrimaryKey)
	}
	return nil
}

// ColumnNames returns the names of all columns in order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// ValidateRow checks that row matches the schema: arity, NOT NULL constraints
// and value types (Int/Float are mutually assignable; Text/Sequence likewise).
func (s *Schema) ValidateRow(row value.Row) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("%w: table %s expects %d columns, got %d",
			ErrSchemaMismatch, s.Name, len(s.Columns), len(row))
	}
	for i, col := range s.Columns {
		v := row[i]
		if v.IsNull() {
			if col.NotNull {
				return fmt.Errorf("%w: column %s.%s is NOT NULL", ErrSchemaMismatch, s.Name, col.Name)
			}
			continue
		}
		if !typeAssignable(v.Type(), col.Type) {
			return fmt.Errorf("%w: column %s.%s expects %s, got %s",
				ErrSchemaMismatch, s.Name, col.Name, col.Type, v.Type())
		}
	}
	return nil
}

// CoerceRow casts each value of row to the column type where an implicit
// conversion exists, returning the coerced row.
func (s *Schema) CoerceRow(row value.Row) (value.Row, error) {
	if len(row) != len(s.Columns) {
		return nil, fmt.Errorf("%w: table %s expects %d columns, got %d",
			ErrSchemaMismatch, s.Name, len(s.Columns), len(row))
	}
	out := make(value.Row, len(row))
	for i, col := range s.Columns {
		v := row[i]
		if v.IsNull() || v.Type() == col.Type {
			out[i] = v
			continue
		}
		cast, err := v.Cast(col.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: column %s.%s: %v", ErrSchemaMismatch, s.Name, col.Name, err)
		}
		out[i] = cast
	}
	if err := s.ValidateRow(out); err != nil {
		return nil, err
	}
	return out, nil
}

func typeAssignable(got, want value.Type) bool {
	if got == want {
		return true
	}
	num := func(t value.Type) bool { return t == value.Int || t == value.Float }
	str := func(t value.Type) bool { return t == value.Text || t == value.Sequence }
	return (num(got) && num(want)) || (str(got) && str(want))
}

// AnnotationTable describes one annotation table attached to a user table
// (the CREATE ANNOTATION TABLE command of Figure 4). Separate annotation
// tables let users categorise annotations (provenance vs. comments).
type AnnotationTable struct {
	// Name is the annotation table's name, unique per user table.
	Name string `json:"name"`
	// UserTable is the user table the annotations attach to.
	UserTable string `json:"user_table"`
	// Category is a free-form label ("comment", "provenance", ...).
	Category string `json:"category,omitempty"`
	// SystemManaged marks annotation tables only the system may write to
	// (provenance, Section 4).
	SystemManaged bool `json:"system_managed,omitempty"`
}

// Catalog is the in-memory schema registry. All methods are safe for
// concurrent use.
type Catalog struct {
	mu        sync.RWMutex
	tables    map[string]*Schema
	annTables map[string]map[string]*AnnotationTable // user table -> ann table name -> def
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:    make(map[string]*Schema),
		annTables: make(map[string]map[string]*AnnotationTable),
	}
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable registers a new table schema.
func (c *Catalog) CreateTable(s *Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(s.Name)]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	c.tables[key(s.Name)] = s
	return nil
}

// DropTable removes a table and all its annotation tables.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(name)]; !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	delete(c.tables, key(name))
	delete(c.annTables, key(name))
	return nil
}

// Table returns the schema of the named table.
func (c *Catalog) Table(name string) (*Schema, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return s, nil
}

// HasTable reports whether the named table exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[key(name)]
	return ok
}

// Tables returns all table schemas sorted by name.
func (c *Catalog) Tables() []*Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Schema, 0, len(c.tables))
	for _, s := range c.tables {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i].Name) < key(out[j].Name) })
	return out
}

// CreateAnnotationTable registers an annotation table over a user table.
func (c *Catalog) CreateAnnotationTable(def *AnnotationTable) error {
	if def == nil || def.Name == "" || def.UserTable == "" {
		return errors.New("catalog: incomplete annotation table definition")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(def.UserTable)]; !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, def.UserTable)
	}
	m, ok := c.annTables[key(def.UserTable)]
	if !ok {
		m = make(map[string]*AnnotationTable)
		c.annTables[key(def.UserTable)] = m
	}
	if _, ok := m[key(def.Name)]; ok {
		return fmt.Errorf("%w: %s on %s", ErrAnnotationTableExists, def.Name, def.UserTable)
	}
	m[key(def.Name)] = def
	return nil
}

// DropAnnotationTable removes an annotation table definition.
func (c *Catalog) DropAnnotationTable(userTable, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.annTables[key(userTable)]
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrAnnotationTableNotFound, name, userTable)
	}
	if _, ok := m[key(name)]; !ok {
		return fmt.Errorf("%w: %s on %s", ErrAnnotationTableNotFound, name, userTable)
	}
	delete(m, key(name))
	return nil
}

// AnnotationTable returns the definition of the named annotation table on the
// given user table.
func (c *Catalog) AnnotationTable(userTable, name string) (*AnnotationTable, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.annTables[key(userTable)]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrAnnotationTableNotFound, name, userTable)
	}
	def, ok := m[key(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrAnnotationTableNotFound, name, userTable)
	}
	return def, nil
}

// AnnotationTables returns all annotation tables attached to a user table,
// sorted by name.
func (c *Catalog) AnnotationTables(userTable string) []*AnnotationTable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.annTables[key(userTable)]
	out := make([]*AnnotationTable, 0, len(m))
	for _, def := range m {
		out = append(out, def)
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i].Name) < key(out[j].Name) })
	return out
}

// --- persistence -------------------------------------------------------------

type catalogJSON struct {
	Tables           []*Schema          `json:"tables"`
	AnnotationTables []*AnnotationTable `json:"annotation_tables"`
}

// MarshalJSON serialises the catalog deterministically.
func (c *Catalog) MarshalJSON() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	doc := catalogJSON{}
	for _, s := range c.tables {
		doc.Tables = append(doc.Tables, s)
	}
	sort.Slice(doc.Tables, func(i, j int) bool { return key(doc.Tables[i].Name) < key(doc.Tables[j].Name) })
	for _, m := range c.annTables {
		for _, def := range m {
			doc.AnnotationTables = append(doc.AnnotationTables, def)
		}
	}
	sort.Slice(doc.AnnotationTables, func(i, j int) bool {
		a, b := doc.AnnotationTables[i], doc.AnnotationTables[j]
		if a.UserTable != b.UserTable {
			return key(a.UserTable) < key(b.UserTable)
		}
		return key(a.Name) < key(b.Name)
	})
	return json.MarshalIndent(doc, "", "  ")
}

// UnmarshalJSON restores a catalog serialised by MarshalJSON.
func (c *Catalog) UnmarshalJSON(data []byte) error {
	var doc catalogJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("catalog: decode: %w", err)
	}
	c.mu.Lock()
	c.tables = make(map[string]*Schema)
	c.annTables = make(map[string]map[string]*AnnotationTable)
	c.mu.Unlock()
	for _, s := range doc.Tables {
		if err := c.CreateTable(s); err != nil {
			return err
		}
	}
	for _, def := range doc.AnnotationTables {
		if err := c.CreateAnnotationTable(def); err != nil {
			return err
		}
	}
	return nil
}
