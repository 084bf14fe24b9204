package layers

import (
	"bdbms"
	"bdbms/internal/authz"
	"bdbms/internal/value"
)

// RecordOperation times Manager.RecordOperation of an UPDATE on the given
// rows (content approval must be on for the table), and Manager.Check.
func RecordOperation(db *bdbms.DB, table string, rowIDs []int64) (recordUs, checkUs float64, err error) {
	mgr := db.Authorization()
	tbl, err := db.Storage().Table(table)
	if err != nil {
		return 0, 0, err
	}
	rows := make([]value.Row, len(rowIDs))
	for i, id := range rowIDs {
		if rows[i], err = tbl.Get(id); err != nil {
			return 0, 0, err
		}
	}
	recordUs = MedianUs(len(rowIDs), func(i int) {
		if _, rerr := mgr.RecordOperation("bench", authz.OpUpdate, table, rowIDs[i], rows[i], rows[i]); rerr != nil {
			err = rerr
		}
	})
	checkUs = MedianUs(len(rowIDs), func(int) { mgr.Check("bench", table, authz.PrivUpdate) })
	return recordUs, checkUs, err
}

// PendingOps returns the number of operations awaiting approval.
func PendingOps(db *bdbms.DB, table string) int { return len(db.Authorization().Pending(table)) }
