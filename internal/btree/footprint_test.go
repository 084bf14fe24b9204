package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// intKey is the order-preserving key the storage engine builds for an INT
// column value (value.EncodeKey: type tag, then the big-endian integer with
// its sign bit flipped).
func intKey(i int64) []byte {
	k := []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint64(k[1:], uint64(i)^(1<<63))
	return k
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprint builds a tree from keys, each inserted with an 8-byte value, and
// returns the live heap the tree holds per entry and the heap objects the
// inserts allocated per entry. The keys are built before measuring.
func footprint(keys [][]byte) (bytesPerEntry, allocsPerInsert float64) {
	var value [8]byte
	var before, after runtime.MemStats
	base := liveHeap()
	runtime.ReadMemStats(&before)
	tr := New(DefaultOrder)
	for i, k := range keys {
		binary.BigEndian.PutUint64(value[:], uint64(i))
		tr.Insert(k, value[:])
	}
	runtime.ReadMemStats(&after)
	live := liveHeap()
	runtime.KeepAlive(tr)
	n := float64(len(keys))
	return float64(live-base) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestTreeBytesPerEntry pins what an index entry costs: live heap per
// (key, 8-byte value) entry for the shapes the engine's indexes take, and
// the heap objects an Insert allocates, amortized.
func TestTreeBytesPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 100 000-entry trees")
	}
	const n = 100_000
	ascending := make([][]byte, n)
	for i := range ascending {
		ascending[i] = intKey(int64(i))
	}
	random := append([][]byte(nil), ascending...)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	// 500 keys in round-robin order, as a 500-family TEXT column indexed
	// in RowID order.
	dups := make([][]byte, n)
	for i := range dups {
		dups[i] = []byte(fmt.Sprintf("\x04F%03d\x00", i%500))
	}
	for _, tc := range []struct {
		name     string
		keys     [][]byte
		maxBytes float64
	}{
		{"ascending unique INT keys", ascending, 48},
		{"random-order unique keys", random, 64},
		{"500 keys with duplicates", dups, 24},
	} {
		perEntry, allocs := footprint(tc.keys)
		t.Logf("%s: %.1f B/entry, %.3f allocs/insert", tc.name, perEntry, allocs)
		if perEntry > tc.maxBytes {
			t.Errorf("%s: %.1f B of live heap per entry, want <= %.0f", tc.name, perEntry, tc.maxBytes)
		}
		if allocs >= 0.5 {
			t.Errorf("%s: %.3f allocations per Insert, want < 0.5", tc.name, allocs)
		}
	}
}
