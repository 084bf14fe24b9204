package layers

import (
	"time"

	"bdbms"
	"bdbms/internal/value"
)

// SnapshotGet measures what a point read costs below the executor:
// NewSnapshot + IndexLookup + Snapshot.Get + Close per key, and IndexLookup
// alone (the B+-tree probe). before, when not nil, runs untimed ahead of every
// key (see MedianAfter).
func SnapshotGet(db *bdbms.DB, table, column string, keys []int32, before func(i int)) (getUs, lookupUs float64, err error) {
	eng := db.Storage()
	tbl, err := eng.Table(table)
	if err != nil {
		return 0, 0, err
	}
	getUs = MedianAfter(len(keys), before, func(i int) {
		snap := eng.NewSnapshot()
		ids, lerr := tbl.IndexLookup(column, value.NewInt(int64(keys[i])))
		if lerr == nil && len(ids) == 1 {
			_, lerr = snap.Get(tbl, ids[0])
		}
		snap.Close()
		if lerr != nil {
			err = lerr
		}
	})
	lookupUs = MedianAfter(len(keys), before, func(i int) {
		if _, lerr := tbl.IndexLookup(column, value.NewInt(int64(keys[i]))); lerr != nil {
			err = lerr
		}
	})
	return getUs, lookupUs, err
}

// ScanRowsPerSec times Table.Scan over a whole table: the heap scan that
// attaching a table on open performs.
func ScanRowsPerSec(db *bdbms.DB, table string) (float64, error) {
	tbl, err := db.Storage().Table(table)
	if err != nil {
		return 0, err
	}
	n := 0
	start := time.Now()
	err = tbl.Scan(func(int64, value.Row) bool { n++; return true })
	return float64(n) / time.Since(start).Seconds(), err
}

// ComputeStatsMs times Table.ComputeStats, the rescan a drifted table pays.
func ComputeStatsMs(db *bdbms.DB, table string) (float64, error) {
	tbl, err := db.Storage().Table(table)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = tbl.ComputeStats()
	return float64(time.Since(start)) / 1e6, err
}

// RowIDs returns the row IDs of the given primary keys, for the probes that
// address cells.
func RowIDs(db *bdbms.DB, table string, keys []int32) ([]int64, error) {
	tbl, err := db.Storage().Table(table)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(keys))
	for i, k := range keys {
		if ids[i], err = tbl.FindByPrimaryKey(value.NewInt(int64(k))); err != nil {
			return nil, err
		}
	}
	return ids, nil
}
