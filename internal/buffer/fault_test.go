package buffer

import (
	"errors"
	"testing"

	"bdbms/internal/pager"
)

// dirtyPage allocates a page through the pool, stamps a marker byte into
// it, marks it dirty and unpins it.
func dirtyPage(t *testing.T, pool *Pool, marker byte) pager.PageID {
	t.Helper()
	id, data, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data[0] = marker
	pool.MarkDirty(id)
	if err := pool.Unpin(id); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestEvictionWriteBackFailureFallsBackToCleanFrame: when the LRU victim is
// dirty and its write-back fails, the pool must keep that frame resident
// and dirty (the in-pool copy is the only trustworthy one) and instead
// evict a clean frame so the fetch still succeeds.
func TestEvictionWriteBackFailureFallsBackToCleanFrame(t *testing.T) {
	inner := pager.NewMem()
	fp := pager.NewFaultPager(inner)
	pool := New(fp, 2)

	// Unpin order makes the dirty page the LRU victim: it is unpinned
	// first, the clean page after it.
	dirty := dirtyPage(t, pool, 0xAA)
	clean, _, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(clean); err != nil {
		t.Fatal(err)
	}

	fp.FailWriteAfter(0, pager.ErrInjectedENOSPC)
	third, err := fp.Allocate() // allocation is not a Write; only write-back is faulted
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(third); err != nil {
		t.Fatalf("fetch with failing write-back should fall back to a clean victim: %v", err)
	}
	if err := pool.Unpin(third); err != nil {
		t.Fatal(err)
	}

	// The dirty page must still be resident with its in-pool content.
	got, err := pool.Fetch(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA {
		t.Fatalf("dirty page served stale content %#x after failed write-back", got[0])
	}
	if err := pool.Unpin(dirty); err != nil {
		t.Fatal(err)
	}

	// Once the disk recovers, the dirty bit must still be set so the page
	// reaches the pager.
	fp.FailWriteAfter(-1, nil)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	persisted, err := readPage(inner, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if persisted[0] != 0xAA {
		t.Fatal("dirty bit lost: page never written back after the fault cleared")
	}
}

// TestEvictionWriteBackFailureAllDirty: with every unpinned frame dirty and
// the disk rejecting writes, the fetch must fail with the write error — and
// every dirty frame must stay resident so no half-persisted page can ever
// be re-read from disk.
func TestEvictionWriteBackFailureAllDirty(t *testing.T) {
	inner := pager.NewMem()
	fp := pager.NewFaultPager(inner)
	pool := New(fp, 2)

	d1 := dirtyPage(t, pool, 0x01)
	d2 := dirtyPage(t, pool, 0x02)

	fp.FailWriteAfter(0, pager.ErrInjectedEIO)
	third, err := fp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(third); !errors.Is(err, pager.ErrInjectedEIO) {
		t.Fatalf("fetch = %v, want the write-back EIO", err)
	}
	if pool.Resident() != 2 {
		t.Fatalf("resident = %d after failed eviction, want 2 (victim must not be dropped)", pool.Resident())
	}

	// Retried statements read the in-pool copies, never a stale disk page.
	for id, marker := range map[pager.PageID]byte{d1: 0x01, d2: 0x02} {
		got, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != marker {
			t.Fatalf("page %d served %#x, want %#x", id, got[0], marker)
		}
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}

	// After the fault clears, both pages flush and the engine is healthy.
	fp.FailWriteAfter(-1, nil)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id, marker := range map[pager.PageID]byte{d1: 0x01, d2: 0x02} {
		persisted, err := readPage(inner, id)
		if err != nil {
			t.Fatal(err)
		}
		if persisted[0] != marker {
			t.Fatalf("page %d lost its dirty bit: disk has %#x, want %#x", id, persisted[0], marker)
		}
	}
}
