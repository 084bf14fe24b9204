// Package buffer implements a fixed-capacity buffer pool over a pager with
// LRU replacement, pin counting and dirty-page write-back. The pool is what
// turns logical page requests from the heap and the access methods into the
// physical I/Os counted by the pager (experiment E2's sensitivity sweep varies
// the pool capacity).
package buffer

import (
	"errors"
	"fmt"
	"sync"

	"bdbms/internal/pager"
)

// Errors returned by the pool.
var (
	// ErrPoolFull is returned when every frame is pinned and a new page is requested.
	ErrPoolFull = errors.New("buffer: all frames pinned")
	// ErrNotPinned is returned when unpinning a page that is not resident or not pinned.
	ErrNotPinned = errors.New("buffer: page not pinned")
)

// Stats summarises pool behaviour.
type Stats struct {
	// Hits counts requests served from the pool.
	Hits uint64
	// Misses counts requests for a page that was not resident: a Fetch
	// that read it from the pager, or an Allocate.
	Misses uint64
	// Evictions counts pages evicted to make room.
	Evictions uint64
	// WriteBacks counts dirty pages flushed to the pager.
	WriteBacks uint64
}

// frame is one pool slot. A frame outlives the pages it holds: when the
// pool is full, a miss evicts the least recently used unpinned frame and
// reads the new page into the same frame and buffer.
type frame struct {
	id    pager.PageID
	data  []byte
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU list while it is
	// unpinned; both are nil while it is pinned.
	prev, next *frame
}

// Pool is an LRU buffer pool. All methods are safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	pgr      pager.Pager
	capacity int
	frames   map[pager.PageID]*frame
	// lru is the sentinel of a circular list of the unpinned frames:
	// lru.next is the most recently used, lru.prev the least.
	lru   frame
	stats Stats
}

// New creates a pool of the given capacity (in pages) over p.
// Capacity must be at least 1.
func New(p pager.Pager, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	b := &Pool{
		pgr:      p,
		capacity: capacity,
		frames:   make(map[pager.PageID]*frame),
	}
	b.lru.prev, b.lru.next = &b.lru, &b.lru
	return b
}

// Capacity returns the pool capacity in pages.
func (b *Pool) Capacity() int { return b.capacity }

// Stats returns a snapshot of the pool counters.
func (b *Pool) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Allocate creates a new page via the pager and returns it pinned with a
// zeroed buffer. The pager has just written the page as zeroes, so the
// frame is installed clean without reading it back.
func (b *Pool) Allocate() (pager.PageID, []byte, error) {
	id, err := b.pgr.Allocate()
	if err != nil {
		return pager.InvalidPageID, nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Misses++
	fr, err := b.slotLocked()
	if err != nil {
		return pager.InvalidPageID, nil, err
	}
	clear(fr.data)
	b.installLocked(fr, id)
	return id, fr.data, nil
}

// Fetch pins page id and returns its in-pool buffer. Callers may mutate the
// buffer; they must call MarkDirty to have the change written back, and
// Unpin when done. The buffer belongs to the pool: once unpinned it may be
// reused for another page, so callers copy out what they keep.
func (b *Pool) Fetch(id pager.PageID) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if fr, ok := b.frames[id]; ok {
		b.stats.Hits++
		fr.pins++
		if fr.next != nil {
			unlink(fr)
		}
		return fr.data, nil
	}
	b.stats.Misses++
	fr, err := b.slotLocked()
	if err != nil {
		return nil, err
	}
	if err := b.pgr.Read(id, fr.data); err != nil {
		return nil, err
	}
	b.installLocked(fr, id)
	return fr.data, nil
}

// installLocked makes fr page id's resident frame, pinned once and clean.
func (b *Pool) installLocked(fr *frame, id pager.PageID) {
	fr.id, fr.pins, fr.dirty = id, 1, false
	b.frames[id] = fr
}

// slotLocked returns a frame, owned by no page, to read a page into: a
// fresh one while the pool is below capacity, otherwise the least recently
// used unpinned frame, evicted (and written back first if dirty). The
// caller must hold the mutex.
func (b *Pool) slotLocked() (*frame, error) {
	if len(b.frames) < b.capacity {
		return &frame{data: make([]byte, pager.PageSize)}, nil
	}
	victim := b.lru.prev
	if victim == &b.lru {
		return nil, ErrPoolFull
	}
	if victim.dirty {
		if err := b.pgr.Write(victim.id, victim.data); err != nil {
			// The in-pool buffer is now the only trustworthy copy of the
			// victim (the disk may hold a half-persisted frame), so it must
			// stay resident and dirty: evicting would let a later Fetch
			// resurrect the stale on-disk version. Fall back to evicting
			// the least recently used clean frame so reads keep working on
			// a disk that rejects writes; only when every unpinned frame is
			// dirty does the fetch fail.
			for clean := victim.prev; clean != &b.lru; clean = clean.prev {
				if !clean.dirty {
					return b.evictLocked(clean), nil
				}
			}
			return nil, fmt.Errorf("buffer: evict write-back: %w", err)
		}
		b.stats.WriteBacks++
	}
	return b.evictLocked(victim), nil
}

// evictLocked drops the unpinned frame fr from the pool and returns it for
// reuse.
func (b *Pool) evictLocked(fr *frame) *frame {
	unlink(fr)
	delete(b.frames, fr.id)
	b.stats.Evictions++
	return fr
}

// unlink removes fr from the LRU list.
func unlink(fr *frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// MarkDirty records that the pinned page id was modified.
func (b *Pool) MarkDirty(id pager.PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if fr, ok := b.frames[id]; ok {
		fr.dirty = true
	}
}

// Unpin releases one pin on page id. When the pin count reaches zero the page
// becomes evictable.
func (b *Pool) Unpin(id pager.PageID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	fr, ok := b.frames[id]
	if !ok || fr.pins == 0 {
		return ErrNotPinned
	}
	fr.pins--
	if fr.pins == 0 {
		// Push to the front: the most recently used end.
		fr.prev, fr.next = &b.lru, b.lru.next
		fr.next.prev, b.lru.next = fr, fr
	}
	return nil
}

// FlushAll writes every dirty resident page back to the pager. Pages remain
// resident and keep their pin counts.
func (b *Pool) FlushAll() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, fr := range b.frames {
		if !fr.dirty {
			continue
		}
		if err := b.pgr.Write(fr.id, fr.data); err != nil {
			return fmt.Errorf("buffer: flush page %d: %w", fr.id, err)
		}
		fr.dirty = false
		b.stats.WriteBacks++
	}
	return nil
}

// Resident returns the number of pages currently in the pool.
func (b *Pool) Resident() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.frames)
}
