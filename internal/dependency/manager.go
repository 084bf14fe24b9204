package dependency

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"bdbms/internal/catalog"
	"bdbms/internal/storage"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// Event describes what the cascade did to one cell.
type Event struct {
	// Cell is the affected target cell.
	Cell Cell
	// Rule is the rule that linked the modified source to this cell.
	Rule Rule
	// Recomputed is true when the cell was automatically re-evaluated
	// (executable procedure); false when it was only marked outdated.
	Recomputed bool
}

// Manager performs instance-level dependency tracking over a storage engine.
type Manager struct {
	mu      sync.RWMutex
	eng     *storage.Engine
	rules   *RuleSet
	bitmaps map[string]*Bitmap
	log     *wal.Log
	// events accumulates an audit trail of cascade actions.
	events []Event
}

// NewManager builds a dependency manager over the storage engine.
// Outdated-bitmap transitions are logged to the engine's write-ahead log, so
// a reopened database remembers which cells need re-verification and a
// rolled-back write takes its marks with it. Dependency rules themselves are
// Go values (procedures are function pointers) and must be re-registered by
// the application after reopen.
func NewManager(eng *storage.Engine) *Manager {
	return &Manager{
		eng:     eng,
		rules:   NewRuleSet(),
		bitmaps: make(map[string]*Bitmap),
		log:     eng.WAL(),
	}
}

// markRecord is the WAL payload of one outdated-bitmap transition.
type markRecord struct {
	Table string `json:"table"`
	RowID int64  `json:"row_id"`
	Col   int    `json:"col"`
	Set   bool   `json:"set"`
}

// setMark logs one outdated-bitmap transition and then applies it
// (write-ahead order). Transitions that would not change the bit are
// dropped, keeping the WAL free of no-op records — so the bit before a
// logged transition is always the opposite one. A failed append leaves the
// bit untouched, so memory never holds a mark the log (and therefore a
// reopened database) would not.
func (m *Manager) setMark(table string, rowID int64, col int, set bool) error {
	b := m.bitmap(table)
	if b.IsSet(rowID, col) == set {
		return nil
	}
	payload, err := json.Marshal(markRecord{Table: table, RowID: rowID, Col: col, Set: set})
	if err != nil {
		return err
	}
	if _, err := m.log.Append(wal.KindDepMark, table, payload); err != nil {
		return err
	}
	setBit(b, rowID, col, set)
	return nil
}

// DecodeMarkPayload parses the WAL payload of a KindDepMark record.
func DecodeMarkPayload(payload []byte) (table string, rowID int64, col int, set bool, err error) {
	var rec markRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return "", 0, 0, false, fmt.Errorf("dependency: decode mark payload: %w", err)
	}
	return rec.Table, rec.RowID, rec.Col, rec.Set, nil
}

// ApplyMark sets (or clears) one outdated bit: the applier of a DEP-MARK
// record, whose undo is the opposite transition.
func (m *Manager) ApplyMark(table string, rowID int64, col int, set bool) {
	setBit(m.bitmap(table), rowID, col, set)
}

func setBit(b *Bitmap, rowID int64, col int, set bool) {
	if set {
		b.Set(rowID, col)
	} else {
		b.Clear(rowID, col)
	}
}

// Snapshot returns every outdated cell, the state a checkpoint persists.
func (m *Manager) Snapshot() []Cell { return m.OutdatedCells() }

// RestoreSnapshot loads checkpointed outdated cells into an empty manager.
func (m *Manager) RestoreSnapshot(cells []Cell) {
	for _, c := range cells {
		m.bitmap(c.Table).Set(c.RowID, c.Col)
	}
}

// Rules exposes the underlying rule set for reasoning queries.
func (m *Manager) Rules() *RuleSet { return m.rules }

// AddRule validates column references against the catalog and stores the rule.
func (m *Manager) AddRule(r Rule) (Rule, error) {
	for _, ref := range append(append([]ColumnRef{}, r.Sources...), r.Targets...) {
		tbl, err := m.eng.Table(ref.Table)
		if err != nil {
			return Rule{}, err
		}
		if tbl.Schema().ColumnIndex(ref.Column) < 0 {
			return Rule{}, fmt.Errorf("%w: %s", catalog.ErrColumnNotFound, ref)
		}
	}
	if r.Link != nil {
		for _, tref := range r.Targets {
			tbl, err := m.eng.Table(tref.Table)
			if err != nil {
				return Rule{}, err
			}
			if tbl.Schema().ColumnIndex(r.Link.TargetColumn) < 0 {
				return Rule{}, fmt.Errorf("%w: link target %s.%s", catalog.ErrColumnNotFound, tref.Table, r.Link.TargetColumn)
			}
		}
		for _, sref := range r.Sources {
			tbl, err := m.eng.Table(sref.Table)
			if err != nil {
				return Rule{}, err
			}
			if tbl.Schema().ColumnIndex(r.Link.SourceColumn) < 0 {
				return Rule{}, fmt.Errorf("%w: link source %s.%s", catalog.ErrColumnNotFound, sref.Table, r.Link.SourceColumn)
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rules.Add(r)
}

// bitmap returns (creating if needed) the outdated bitmap of a table.
func (m *Manager) bitmap(table string) *Bitmap {
	key := strings.ToLower(table)
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.bitmaps[key]; ok {
		return b
	}
	numCols := 1
	if tbl, err := m.eng.Table(table); err == nil {
		numCols = len(tbl.Schema().Columns)
	}
	b := NewBitmap(table, numCols)
	m.bitmaps[key] = b
	return b
}

// Bitmap returns the outdated bitmap of a table (created on demand).
func (m *Manager) Bitmap(table string) *Bitmap { return m.bitmap(table) }

// IsOutdated reports whether a cell is currently marked outdated.
func (m *Manager) IsOutdated(table string, rowID int64, column string) bool {
	tbl, err := m.eng.Table(table)
	if err != nil {
		return false
	}
	col := tbl.Schema().ColumnIndex(column)
	if col < 0 {
		return false
	}
	return m.bitmap(table).IsSet(rowID, col)
}

// OutdatedCells returns every outdated cell across all tracked tables.
func (m *Manager) OutdatedCells() []Cell {
	m.mu.RLock()
	tables := make([]*Bitmap, 0, len(m.bitmaps))
	for _, b := range m.bitmaps {
		tables = append(tables, b)
	}
	m.mu.RUnlock()
	var out []Cell
	for _, b := range tables {
		out = append(out, b.OutdatedCells()...)
	}
	return out
}

// Events returns the audit trail of cascade actions since construction.
func (m *Manager) Events() []Event {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// targetRows resolves which rows of the target table correspond to the
// modified source row under the rule's Link (same row when Link is nil and
// the tables match).
func (m *Manager) targetRows(r Rule, sourceTable string, sourceRowID int64, targetTable string) ([]int64, error) {
	if r.Link == nil {
		if strings.EqualFold(sourceTable, targetTable) {
			return []int64{sourceRowID}, nil
		}
		return nil, nil
	}
	srcTbl, err := m.eng.Table(sourceTable)
	if err != nil {
		return nil, err
	}
	linkVal, err := srcTbl.GetColumn(sourceRowID, r.Link.SourceColumn)
	if err != nil {
		return nil, err
	}
	tgtTbl, err := m.eng.Table(targetTable)
	if err != nil {
		return nil, err
	}
	// Use an index when available, otherwise scan.
	if tgtTbl.HasIndex(r.Link.TargetColumn) {
		return tgtTbl.LookupEqual(r.Link.TargetColumn, linkVal)
	}
	colIdx := tgtTbl.Schema().ColumnIndex(r.Link.TargetColumn)
	var out []int64
	err = tgtTbl.Scan(func(rowID int64, row value.Row) bool {
		if row[colIdx].Equal(linkVal) {
			out = append(out, rowID)
		}
		return true
	})
	return out, err
}

// OnCellModified runs the dependency cascade after the cell
// (table, rowID, column) changed. For each rule whose sources include the
// column:
//
//   - executable rules with an Apply function recompute the target cells in
//     place and the cascade continues from the recomputed cells;
//   - non-executable rules (or executable ones without Apply) mark the target
//     cells outdated, and the cascade continues from them so transitive
//     targets are marked too (Figure 9: PFunction is marked when GSequence
//     changes even though PSequence was recomputed).
//
// The returned events describe every affected cell in cascade order.
func (m *Manager) OnCellModified(table string, rowID int64, column string) ([]Event, error) {
	type frame struct {
		table  string
		rowID  int64
		column string
	}
	var events []Event
	visited := map[string]bool{}
	queue := []frame{{table: table, rowID: rowID, column: column}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		vkey := fmt.Sprintf("%s|%d|%s", strings.ToLower(f.table), f.rowID, strings.ToLower(f.column))
		if visited[vkey] {
			continue
		}
		visited[vkey] = true

		rules := m.rules.RulesFrom(ColumnRef{Table: f.table, Column: f.column})
		for _, r := range rules {
			for _, target := range r.Targets {
				rows, err := m.targetRows(r, f.table, f.rowID, target.Table)
				if err != nil {
					return events, err
				}
				tgtTbl, err := m.eng.Table(target.Table)
				if err != nil {
					return events, err
				}
				colIdx := tgtTbl.Schema().ColumnIndex(target.Column)
				if colIdx < 0 {
					continue
				}
				for _, tRow := range rows {
					ev := Event{
						Cell: Cell{Table: tgtTbl.Name(), RowID: tRow, Col: colIdx},
						Rule: r,
					}
					if r.Proc.Executable && r.Proc.Apply != nil {
						newVal, err := m.recompute(r, f.table, f.rowID, tgtTbl, tRow, target.Column)
						if err != nil {
							return events, err
						}
						ev.Recomputed = true
						_ = newVal
						// A recomputed cell still changed, so its own
						// dependents must be revisited.
					} else if err := m.setMark(tgtTbl.Name(), tRow, colIdx, true); err != nil {
						return events, err
					}
					events = append(events, ev)
					queue = append(queue, frame{table: target.Table, rowID: tRow, column: target.Column})
				}
			}
		}
	}
	m.mu.Lock()
	m.events = append(m.events, events...)
	m.mu.Unlock()
	return events, nil
}

// recompute evaluates the rule's procedure on the current source values and
// writes the result into the target cell.
func (m *Manager) recompute(r Rule, srcTable string, srcRowID int64, tgtTbl *storage.Table, tgtRowID int64, tgtColumn string) (value.Value, error) {
	inputs := make([]value.Value, 0, len(r.Sources))
	for _, s := range r.Sources {
		sTbl, err := m.eng.Table(s.Table)
		if err != nil {
			return value.Value{}, err
		}
		// Source row: the modified row when the source table matches, else the
		// row linked back from the target.
		sRow := srcRowID
		if !strings.EqualFold(s.Table, srcTable) {
			if r.Link == nil {
				continue
			}
			linkVal, err := tgtTbl.GetColumn(tgtRowID, r.Link.TargetColumn)
			if err != nil {
				return value.Value{}, err
			}
			var ids []int64
			if sTbl.HasIndex(r.Link.SourceColumn) {
				ids, err = sTbl.LookupEqual(r.Link.SourceColumn, linkVal)
				if err != nil {
					return value.Value{}, err
				}
			} else {
				colIdx := sTbl.Schema().ColumnIndex(r.Link.SourceColumn)
				err = sTbl.Scan(func(rowID int64, row value.Row) bool {
					if row[colIdx].Equal(linkVal) {
						ids = append(ids, rowID)
					}
					return true
				})
				if err != nil {
					return value.Value{}, err
				}
			}
			if len(ids) == 0 {
				continue
			}
			sRow = ids[0]
		}
		v, err := sTbl.GetColumn(sRow, s.Column)
		if err != nil {
			return value.Value{}, err
		}
		inputs = append(inputs, v)
	}
	newVal, err := r.Proc.Apply(inputs)
	if err != nil {
		return value.Value{}, fmt.Errorf("dependency: procedure %s failed: %w", r.Proc.Name, err)
	}
	if err := tgtTbl.UpdateColumn(tgtRowID, tgtColumn, newVal); err != nil {
		return value.Value{}, err
	}
	// The cell now holds a freshly computed value: clear any stale mark.
	colIdx := tgtTbl.Schema().ColumnIndex(tgtColumn)
	if err := m.setMark(tgtTbl.Name(), tgtRowID, colIdx, false); err != nil {
		return value.Value{}, err
	}
	return newVal, nil
}

// Revalidate clears the outdated mark of a cell after a user verified (and
// possibly corrected) it. The value itself may or may not have changed — the
// paper notes a modification to a gene does not always change the protein.
func (m *Manager) Revalidate(table string, rowID int64, column string) error {
	tbl, err := m.eng.Table(table)
	if err != nil {
		return err
	}
	col := tbl.Schema().ColumnIndex(column)
	if col < 0 {
		return fmt.Errorf("%w: %s.%s", catalog.ErrColumnNotFound, table, column)
	}
	return m.setMark(tbl.Name(), rowID, col, false)
}

// OutdatedAnnotationBodies renders one human-readable warning per outdated
// cell, ready to be attached as annotations to query answers ("the query
// answer may not be correct", Section 5).
func (m *Manager) OutdatedAnnotationBodies() map[Cell]string {
	out := make(map[Cell]string)
	for _, c := range m.OutdatedCells() {
		tbl, err := m.eng.Table(c.Table)
		colName := fmt.Sprintf("col%d", c.Col)
		if err == nil && c.Col < len(tbl.Schema().Columns) {
			colName = tbl.Schema().Columns[c.Col].Name
		}
		out[c] = fmt.Sprintf("<Annotation>OUTDATED: %s.%s of row %d needs re-verification</Annotation>",
			c.Table, colName, c.RowID)
	}
	return out
}
