package layers

import (
	"bdbms"
	"bdbms/internal/annotation"
)

// AnnotationAdd times Manager.Add of one annotation over regionRows
// consecutive rows' column col, starting at each given row ID.
func AnnotationAdd(db *bdbms.DB, table, annTable string, rowIDs []int64, regionRows, col int) (float64, error) {
	mgr := db.Annotations()
	var err error
	us := MedianUs(len(rowIDs), func(i int) {
		reg := annotation.Region{Table: table, RowStart: rowIDs[i], RowEnd: rowIDs[i] + int64(regionRows) - 1, ColStart: col, ColEnd: col}
		if _, aerr := mgr.Add(table, annTable, "<Annotation>probe</Annotation>", "bench", []annotation.Region{reg}); aerr != nil {
			err = aerr
		}
	})
	return us, err
}

// AnnotationForCell times Manager.ForCell on the given cells of column col.
func AnnotationForCell(db *bdbms.DB, table string, rowIDs []int64, col int) float64 {
	mgr := db.Annotations()
	return MedianUs(len(rowIDs), func(i int) { mgr.ForCell(table, rowIDs[i], col, annotation.Filter{}) })
}

// AnnotationCount returns Manager.Count.
func AnnotationCount(db *bdbms.DB, table string) int { return db.Annotations().Count(table) }
