package buffer

import (
	"testing"

	"bdbms/internal/pager"
)

func newPool(t *testing.T, capacity, pages int) (*Pool, *pager.MemPager, []pager.PageID) {
	t.Helper()
	p := pager.NewMem()
	pool := New(p, capacity)
	ids := make([]pager.PageID, pages)
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return pool, p, ids
}

// readPage reads page id straight from the pager into a fresh buffer.
func readPage(p pager.Pager, id pager.PageID) ([]byte, error) {
	buf := make([]byte, pager.PageSize)
	if err := p.Read(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func TestFetchHitMiss(t *testing.T) {
	pool, _, ids := newPool(t, 4, 2)
	if _, err := pool.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit", st)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	pool, p, ids := newPool(t, 1, 2)
	data, err := pool.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 0xAB
	pool.MarkDirty(ids[0])
	if err := pool.Unpin(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Fetching a second page in a capacity-1 pool evicts and writes back page 0.
	if _, err := pool.Fetch(ids[1]); err != nil {
		t.Fatal(err)
	}
	got, err := readPage(p, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Error("dirty page was not written back on eviction")
	}
	st := pool.Stats()
	if st.Evictions != 1 || st.WriteBacks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPoolFullWhenAllPinned(t *testing.T) {
	pool, _, ids := newPool(t, 1, 2)
	if _, err := pool.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(ids[1]); err != ErrPoolFull {
		t.Fatalf("expected ErrPoolFull, got %v", err)
	}
}

func TestUnpinErrors(t *testing.T) {
	pool, _, ids := newPool(t, 2, 1)
	if err := pool.Unpin(ids[0]); err != ErrNotPinned {
		t.Fatalf("unpin of non-resident page: %v", err)
	}
	if _, err := pool.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(ids[0]); err != ErrNotPinned {
		t.Fatalf("double unpin: %v", err)
	}
}

func TestFlushAll(t *testing.T) {
	pool, p, ids := newPool(t, 4, 3)
	for _, id := range ids {
		data, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		data[1] = byte(id) + 1
		pool.MarkDirty(id)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		got, err := readPage(p, id)
		if err != nil {
			t.Fatal(err)
		}
		if got[1] != byte(id)+1 {
			t.Errorf("page %d not flushed", id)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	pool, _, ids := newPool(t, 2, 3)
	fetchUnpin := func(id pager.PageID) {
		if _, err := pool.Fetch(id); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	fetchUnpin(ids[0])
	fetchUnpin(ids[1])
	fetchUnpin(ids[0]) // 0 becomes most recently used
	fetchUnpin(ids[2]) // should evict 1, not 0
	st := pool.Stats()
	fetchUnpin(ids[0])
	st2 := pool.Stats()
	if st2.Hits != st.Hits+1 {
		t.Error("page 0 should have stayed resident (LRU evicted the wrong page)")
	}
}

func TestAllocateThroughPool(t *testing.T) {
	p := pager.NewMem()
	pool := New(p, 2)
	id, data, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != pager.PageSize {
		t.Fatalf("allocated buffer %d bytes", len(data))
	}
	if err := pool.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if pool.Resident() != 1 {
		t.Errorf("resident = %d", pool.Resident())
	}
}

func TestCapacityFloor(t *testing.T) {
	p := pager.NewMem()
	pool := New(p, 0)
	if pool.Capacity() != 1 {
		t.Errorf("capacity floor = %d, want 1", pool.Capacity())
	}
}
