package layers

import (
	"time"

	"bdbms"
	"bdbms/internal/annotation"
	"bdbms/internal/provenance"
)

// ProvenanceAttach times Manager.Attach of one record to each given row.
func ProvenanceAttach(db *bdbms.DB, table string, numCols int, rowIDs []int64) (float64, error) {
	mgr := db.Provenance()
	if err := mgr.RegisterAgent("bench-loader"); err != nil {
		return 0, err
	}
	if err := mgr.EnsureTable(table); err != nil {
		return 0, err
	}
	rec := provenance.Record{Source: "GenBank", Program: "bench", Action: "copy", Agent: "bench-loader", Time: time.Unix(1_700_000_000, 0)}
	var err error
	us := MedianUs(len(rowIDs), func(i int) {
		if _, aerr := mgr.Attach("bench-loader", table, rec, []annotation.Region{annotation.RowRegion(table, rowIDs[i], numCols)}); aerr != nil {
			err = aerr
		}
	})
	return us, err
}
