package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bdbms/internal/pager"
)

// modelPool is the reference the pool is checked against: the same LRU
// policy written as plainly as possible, over a model of the pager's pages.
type modelPool struct {
	capacity int
	want     [][]byte // per page: the content a Fetch must return
	disk     [][]byte // per page: the content the pager holds
	pins     map[pager.PageID]int
	dirty    map[pager.PageID]bool
	lru      []pager.PageID // unpinned resident pages, most recently used first
	stats    Stats
	// failWrites says every pager write fails.
	failWrites bool
}

// errModelWriteBack stands for the pool's "every unpinned frame is dirty
// and write-back fails" error.
var errModelWriteBack = errors.New("model: eviction write-back fails")

// slot makes room for one more resident page, or says why it cannot.
func (m *modelPool) slot() error {
	if len(m.pins) < m.capacity {
		return nil
	}
	if len(m.lru) == 0 {
		return ErrPoolFull
	}
	last := len(m.lru) - 1
	if victim := m.lru[last]; m.dirty[victim] {
		if m.failWrites {
			for i := last - 1; i >= 0; i-- {
				if !m.dirty[m.lru[i]] {
					m.evict(i)
					return nil
				}
			}
			return errModelWriteBack
		}
		m.disk[victim] = bytes.Clone(m.want[victim])
		m.stats.WriteBacks++
	}
	m.evict(last)
	return nil
}

func (m *modelPool) evict(i int) {
	id := m.lru[i]
	m.lru = slices.Delete(m.lru, i, i+1)
	delete(m.pins, id)
	delete(m.dirty, id)
	m.stats.Evictions++
}

// poolRun drives one seeded random sequence of pool calls against the model.
type poolRun struct {
	t     *testing.T
	rng   *rand.Rand
	pgr   pager.Pager
	fault *pager.FaultPager // non-nil when write-backs can be made to fail
	pool  *Pool
	m     *modelPool
	// bufs holds the buffer each pinned page was handed out.
	bufs map[pager.PageID][]byte
}

func newPoolRun(t *testing.T, pgr pager.Pager, fault *pager.FaultPager, capacity int, seed int64) *poolRun {
	r := &poolRun{
		t: t, rng: rand.New(rand.NewSource(seed)), pgr: pgr, fault: fault,
		pool: New(pgr, capacity),
		m:    &modelPool{capacity: capacity, pins: map[pager.PageID]int{}, dirty: map[pager.PageID]bool{}},
		bufs: map[pager.PageID][]byte{},
	}
	for i := range 6 {
		id, err := pgr.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(i + 1)}, pager.PageSize)
		if err := pgr.Write(id, data); err != nil {
			t.Fatal(err)
		}
		r.m.want, r.m.disk = append(r.m.want, data), append(r.m.disk, bytes.Clone(data))
	}
	return r
}

// pinned returns the pinned pages in ascending order.
func (r *poolRun) pinned() []pager.PageID {
	ids := make([]pager.PageID, 0, len(r.bufs))
	for id := range r.bufs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// sameError checks that the pool failed exactly when and as the model did.
func (r *poolRun) sameError(op string, got, want error) {
	r.t.Helper()
	switch {
	case want == nil && got == nil:
	case want == ErrPoolFull && errors.Is(got, ErrPoolFull):
	case want == errModelWriteBack && errors.Is(got, pager.ErrInjectedEIO):
	default:
		r.t.Fatalf("%s: pool error %v, model error %v", op, got, want)
	}
}

// pin records that id is pinned through buf.
func (r *poolRun) pin(id pager.PageID, buf []byte) {
	r.t.Helper()
	if old, ok := r.bufs[id]; ok && &old[0] != &buf[0] {
		r.t.Fatalf("page %d pinned twice through two different buffers", id)
	}
	r.bufs[id] = buf
}

func (r *poolRun) fetch() string {
	id := pager.PageID(r.rng.Intn(len(r.m.want)))
	var want error
	if _, ok := r.m.pins[id]; ok {
		r.m.stats.Hits++
		if r.m.pins[id] == 0 {
			r.m.lru = slices.DeleteFunc(r.m.lru, func(x pager.PageID) bool { return x == id })
		}
		r.m.pins[id]++
	} else {
		r.m.stats.Misses++
		if want = r.m.slot(); want == nil {
			r.m.pins[id] = 1
		}
	}
	buf, err := r.pool.Fetch(id)
	r.sameError("Fetch", err, want)
	if err == nil {
		r.pin(id, buf)
	}
	return fmt.Sprintf("Fetch(%d)", id)
}

func (r *poolRun) allocate() string {
	id := pager.PageID(len(r.m.want))
	r.m.want, r.m.disk = append(r.m.want, make([]byte, pager.PageSize)), append(r.m.disk, make([]byte, pager.PageSize))
	r.m.stats.Misses++
	want := r.m.slot()
	if want == nil {
		r.m.pins[id] = 1
	}
	got, buf, err := r.pool.Allocate()
	r.sameError("Allocate", err, want)
	if err == nil {
		if got != id {
			r.t.Fatalf("Allocate returned page %d, want %d", got, id)
		}
		r.pin(id, buf)
	}
	return fmt.Sprintf("Allocate() = %d", id)
}

func (r *poolRun) markDirty() string {
	ids := r.pinned()
	if len(ids) == 0 {
		return "MarkDirty skipped"
	}
	id := ids[r.rng.Intn(len(ids))]
	off, v := r.rng.Intn(pager.PageSize), byte(r.rng.Intn(256))
	r.bufs[id][off] = v
	r.m.want[id][off] = v
	r.m.dirty[id] = true
	r.pool.MarkDirty(id)
	return fmt.Sprintf("MarkDirty(%d) after [%d]=%d", id, off, v)
}

func (r *poolRun) unpin() string {
	ids := r.pinned()
	if len(ids) == 0 || r.rng.Intn(10) == 0 {
		// A page that is not pinned: not resident, or resident and unpinned.
		id := pager.PageID(len(r.m.want))
		if len(r.m.lru) > 0 {
			id = r.m.lru[r.rng.Intn(len(r.m.lru))]
		}
		if err := r.pool.Unpin(id); err != ErrNotPinned {
			r.t.Fatalf("Unpin of unpinned page %d = %v, want ErrNotPinned", id, err)
		}
		return fmt.Sprintf("Unpin(%d) refused", id)
	}
	id := ids[r.rng.Intn(len(ids))]
	if err := r.pool.Unpin(id); err != nil {
		r.t.Fatalf("Unpin(%d): %v", id, err)
	}
	if r.m.pins[id]--; r.m.pins[id] == 0 {
		delete(r.bufs, id)
		r.m.lru = slices.Insert(r.m.lru, 0, id)
	}
	return fmt.Sprintf("Unpin(%d)", id)
}

func (r *poolRun) flushAll() string {
	if r.m.failWrites {
		// Which dirty pages a failing FlushAll reaches first depends on map
		// order, so the model only flushes on a healthy disk.
		return "FlushAll skipped"
	}
	if err := r.pool.FlushAll(); err != nil {
		r.t.Fatalf("FlushAll: %v", err)
	}
	for id := range r.m.dirty {
		if r.m.dirty[id] {
			r.m.disk[id] = bytes.Clone(r.m.want[id])
			r.m.stats.WriteBacks++
		}
	}
	clear(r.m.dirty)
	return "FlushAll"
}

func (r *poolRun) toggleFaults() string {
	if r.fault == nil {
		return "no faults to toggle"
	}
	r.m.failWrites = !r.m.failWrites
	if r.m.failWrites {
		r.fault.FailWriteAfter(0, pager.ErrInjectedEIO)
		return "writes start failing"
	}
	r.fault.FailWriteAfter(-1, nil)
	return "writes recover"
}

// check asserts the pool agrees with the model after a step.
func (r *poolRun) check(step int, op string) {
	r.t.Helper()
	if got := r.pool.Stats(); got != r.m.stats {
		r.t.Fatalf("step %d %s: stats %+v, model %+v", step, op, got, r.m.stats)
	}
	if got := r.pool.Resident(); got != len(r.m.pins) {
		r.t.Fatalf("step %d %s: %d resident pages, model %d", step, op, got, len(r.m.pins))
	}
	backing := map[*byte]pager.PageID{}
	for id, buf := range r.bufs {
		if !bytes.Equal(buf, r.m.want[id]) {
			r.t.Fatalf("step %d %s: pinned page %d does not hold its content", step, op, id)
		}
		if other, ok := backing[&buf[0]]; ok {
			r.t.Fatalf("step %d %s: pinned pages %d and %d share one buffer", step, op, id, other)
		}
		backing[&buf[0]] = id
	}
}

// finish flushes on a healthy disk and compares every page the pager holds
// with the model.
func (r *poolRun) finish() {
	r.t.Helper()
	if r.m.failWrites {
		r.toggleFaults()
	}
	r.flushAll()
	for id, want := range r.m.want {
		got, err := readPage(r.pgr, pager.PageID(id))
		if err != nil {
			r.t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			r.t.Fatalf("page %d on the pager differs from the model after FlushAll", id)
		}
	}
}

// TestPoolMatchesModel runs seeded random Fetch/MarkDirty/Unpin/Allocate/
// FlushAll sequences on small pools over a file pager, a memory pager and a
// fault pager whose write-backs fail on and off. After every step the pool's
// counters and resident count equal a plain reference LRU's, every pinned
// buffer holds its page's content, and no two pinned pages share a buffer:
// recycling an evicted frame must never hand one page's bytes to another.
func TestPoolMatchesModel(t *testing.T) {
	pagers := map[string]func(t *testing.T) (pager.Pager, *pager.FaultPager){
		"file": func(t *testing.T) (pager.Pager, *pager.FaultPager) { return openFilePager(t), nil },
		"mem":  func(t *testing.T) (pager.Pager, *pager.FaultPager) { return pager.NewMem(), nil },
		"fault": func(t *testing.T) (pager.Pager, *pager.FaultPager) {
			fp := pager.NewFaultPager(openFilePager(t))
			return fp, fp
		},
	}
	for name, open := range pagers {
		for capacity := 1; capacity <= 4; capacity++ {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/cap%d/seed%d", name, capacity, seed), func(t *testing.T) {
					pgr, fault := open(t)
					r := newPoolRun(t, pgr, fault, capacity, seed)
					ops := []func() string{r.fetch, r.fetch, r.fetch, r.unpin, r.unpin, r.unpin, r.markDirty, r.markDirty, r.allocate, r.flushAll, r.toggleFaults}
					for step := range 1500 {
						r.check(step, ops[r.rng.Intn(len(ops))]())
					}
					r.finish()
				})
			}
		}
	}
}

func openFilePager(t *testing.T) *pager.FilePager {
	t.Helper()
	p, err := pager.OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestSteadyStateMissAllocatesNothing: on a full file-backed pool, a miss
// reads into the evicted frame's buffer and writes a dirty victim back
// through the pager's own frame buffer, so a fetch-dirty-unpin cycle that
// misses every time allocates nothing.
func TestSteadyStateMissAllocatesNothing(t *testing.T) {
	pgr := openFilePager(t)
	const capacity, pages = 4, 8
	for range pages {
		if _, err := pgr.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	pool := New(pgr, capacity)
	next := 0
	cycle := func() {
		id := pager.PageID(next % pages)
		next++
		data, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		data[0]++
		pool.MarkDirty(id)
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	for range pages {
		cycle()
	}
	before := pool.Stats()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a pool miss allocates %v times, want 0", n)
	}
	after := pool.Stats()
	if after.Hits != before.Hits || after.Evictions == before.Evictions || after.WriteBacks == before.WriteBacks {
		t.Fatalf("the cycle did not miss and write back every time: %+v then %+v", before, after)
	}
}

// TestAllocateReadsNothing: the pager writes a new page as zeroes, so the
// pool installs a zeroed frame for it instead of reading it back, including
// when the frame is a recycled one that held another page.
func TestAllocateReadsNothing(t *testing.T) {
	pgr := openFilePager(t)
	pool := New(pgr, 2)
	const n = 8
	for i := range n {
		id, data, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, make([]byte, pager.PageSize)) {
			t.Fatalf("page %d allocated with a non-zero buffer", id)
		}
		data[0] = byte(i + 1)
		pool.MarkDirty(id)
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	if reads := pgr.Stats().Reads; reads != 0 {
		t.Fatalf("allocating %d pages read %d pages from the pager, want 0", n, reads)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id := range pager.PageID(n) {
		got, err := readPage(pgr, id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(id+1) {
			t.Fatalf("page %d holds %d after allocation, want %d", id, got[0], id+1)
		}
	}
}

// TestConcurrentMissesNeverShareAPinnedFrame: goroutines fetch pages through
// a pool much smaller than the file, so nearly every fetch recycles another
// page's frame. A pinned buffer must keep its own page's bytes until it is
// unpinned, whatever the other goroutines evict meanwhile.
func TestConcurrentMissesNeverShareAPinnedFrame(t *testing.T) {
	pgr := openFilePager(t)
	const workers, pages = 4, 32
	for id := range pager.PageID(pages) {
		if _, err := pgr.Allocate(); err != nil {
			t.Fatal(err)
		}
		if err := pgr.Write(id, bytes.Repeat([]byte{byte(id)}, pager.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	pool := New(pgr, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 2000 {
				id := pager.PageID(rng.Intn(pages))
				data, err := pool.Fetch(id)
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
				if data[0] != byte(id) || data[pager.PageSize-1] != byte(id) {
					t.Errorf("pinned page %d holds page %d's bytes", id, data[0])
				}
				if err := pool.Unpin(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := pool.Stats(); st.Evictions == 0 {
		t.Fatalf("no frame was recycled: %+v", st)
	}
}
