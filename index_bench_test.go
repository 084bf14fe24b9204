package bdbms

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"bdbms/internal/btree"
	"bdbms/internal/value"
)

// BenchmarkIndexBuild builds the two B+-trees of a Gene-shaped table —
// GID INT PRIMARY KEY and an index on a TEXT Family column of 500 values —
// the way the storage engine fills them when it reindexes a table in
// RowID order: keys from value.EncodeKey, 8-byte RowID values. It reports
// the live heap the two trees hold and the heap objects their inserts
// allocate, per index entry.
//
//	go test -run '^$' -bench BenchmarkIndexBuild -benchtime 5x .
func BenchmarkIndexBuild(b *testing.B) {
	const rows = 100_000
	gids := make([][]byte, rows)
	families := make([][]byte, rows)
	for i := range gids {
		gids[i] = value.NewInt(int64(i)).EncodeKey(nil)
		families[i] = value.NewText(fmt.Sprintf("F%03d", i%500)).EncodeKey(nil)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var rowID [8]byte
	var heapBytes, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		base := liveHeap()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		pk, family := btree.New(btree.DefaultOrder), btree.New(btree.DefaultOrder)
		for r := range gids {
			binary.BigEndian.PutUint64(rowID[:], uint64(r))
			pk.Insert(gids[r], rowID[:])
			family.Insert(families[r], rowID[:])
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		heapBytes += liveHeap() - base
		mallocs += after.Mallocs - before.Mallocs
		runtime.KeepAlive(pk)
		runtime.KeepAlive(family)
		b.StartTimer()
	}
	entries := float64(2 * rows * b.N)
	b.ReportMetric(float64(heapBytes)/entries, "B/entry")
	b.ReportMetric(float64(mallocs)/entries, "allocs/entry")
}
