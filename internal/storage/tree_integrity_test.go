package storage

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestCheckIntegrityReportsCorruptTree: the index pass runs the tree's own
// structural check. A tree whose entry count disagrees with its leaves —
// unreachable through the btree API, so set through reflection — is
// reported, and the pass reads no further into that tree.
func TestCheckIntegrityReportsCorruptTree(t *testing.T) {
	tbl := integrityTable(t)
	tbl.mu.Lock()
	tree := tbl.indexes["gname"]
	size := reflect.ValueOf(tree).Elem().FieldByName("size")
	*(*int)(unsafe.Pointer(size.UnsafeAddr()))++
	tbl.mu.Unlock()
	problems := tbl.CheckIntegrity()
	requireProblem(t, problems, `index "gname" is structurally corrupt: btree: counted 3 entries`)
	if len(problems) != 1 {
		t.Errorf("problems = %q, want only the structural one", problems)
	}
}
