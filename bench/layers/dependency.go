package layers

import (
	"bdbms"
	"bdbms/internal/dependency"
)

// AddSeqScoreRule registers the non-executable rule Gene.Seq -> Gene.Score:
// changing a sequence marks the row's score outdated. Rules are Go values,
// so this is the only way one exists — also for the end-to-end run.
func AddSeqScoreRule(db *bdbms.DB) error {
	_, err := db.Dependencies().AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Gene", Column: "Seq"}},
		Targets: []dependency.ColumnRef{{Table: "Gene", Column: "Score"}},
		Proc:    dependency.Procedure{Name: "score model", Executable: false},
	})
	return err
}

// OnCellModified times Manager.OnCellModified on the given rows' column and
// returns the median with the number of cells each call marked or recomputed.
func OnCellModified(db *bdbms.DB, table, column string, rowIDs []int64) (us, marksPerCall float64, err error) {
	mgr := db.Dependencies()
	marks := 0
	us = MedianUs(len(rowIDs), func(i int) {
		events, merr := mgr.OnCellModified(table, rowIDs[i], column)
		marks += len(events)
		if merr != nil {
			err = merr
		}
	})
	return us, float64(marks) / float64(len(rowIDs)), err
}

// OutdatedCells returns the number of cells marked outdated.
func OutdatedCells(db *bdbms.DB) int { return len(db.Dependencies().OutdatedCells()) }
