package pager

// This file is the fault-injection side of the package: FaultPager wraps
// any Pager and injects the failures a real filesystem produces — EIO,
// ENOSPC, torn writes, fsync failures, and post-fsync data loss — at exact
// operation counts, so tests can drive every write and sync site in the
// engine through every fault class. It lives here rather than in a _test
// file because the fault matrix spans packages: buffer, exec, core and the
// root-level acceptance tests all build harnesses on it.

import (
	"errors"
	"fmt"
	"sync"
)

// Injected fault errors. They mirror the errno a real filesystem would
// return; tests match on them with errors.Is.
var (
	// ErrInjectedEIO stands in for a device-level I/O error.
	ErrInjectedEIO = errors.New("pager: injected I/O error (EIO)")
	// ErrInjectedENOSPC stands in for a full disk.
	ErrInjectedENOSPC = errors.New("pager: injected no space left on device (ENOSPC)")
	// ErrInjectedSyncFailure stands in for a failed fsync.
	ErrInjectedSyncFailure = errors.New("pager: injected fsync failure")
)

// FaultPager wraps an inner Pager and injects storage faults. All fault
// arms use countdown semantics: Fail*After(n, ...) lets n more operations
// of that kind succeed, then every later one fails until the arm is
// cleared. That models the two realistic shapes — a one-off EIO (clear the
// arm after it trips) and a persistently full or dead disk (leave it).
//
// The zero fault configuration is transparent: every call is forwarded to
// the inner pager unchanged.
type FaultPager struct {
	mu    sync.Mutex
	inner Pager

	writeCountdown int // -1: disarmed
	writeErr       error
	tornKeep       int // with a write fault armed: write this many payload bytes before failing

	syncCountdown int // -1: disarmed
	syncPoisoned  error

	allocCountdown int // -1: disarmed
	allocErr       error

	// trackUnsynced, when on, snapshots each page's pre-write content the
	// first time it is written after a successful Sync, so LoseUnsynced can
	// rewind to the last-synced state — the on-disk picture after a crash
	// that loses the page cache.
	trackUnsynced bool
	unsynced      map[PageID][]byte

	// writes and syncs count operations that reached this layer, giving
	// matrix tests a golden count to iterate over.
	writes int
	syncs  int
}

// NewFaultPager wraps inner with all fault arms disarmed.
func NewFaultPager(inner Pager) *FaultPager {
	return &FaultPager{
		inner:          inner,
		writeCountdown: -1,
		syncCountdown:  -1,
		allocCountdown: -1,
	}
}

// FailWriteAfter lets n more writes succeed, then fails every later write
// with err (use ErrInjectedEIO or ErrInjectedENOSPC). n < 0 disarms.
func (p *FaultPager) FailWriteAfter(n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeCountdown = n
	p.writeErr = err
	p.tornKeep = 0
}

// TearWriteAfter lets n more writes succeed; the next write is torn — the
// first keep payload bytes hit the disk under a header checksummed for the
// full new page, the rest of the frame keeps its old content — and returns
// ErrInjectedEIO, as does every write after it. Requires the inner pager to
// be a *FilePager (tearing needs sub-frame control of the physical file).
func (p *FaultPager) TearWriteAfter(n, keep int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeCountdown = n
	p.writeErr = ErrInjectedEIO
	p.tornKeep = keep
}

// FailSyncAfter lets n more syncs succeed, then fails every later Sync
// with ErrInjectedSyncFailure. Like a real pager, a FaultPager whose sync
// failed is poisoned: clearing the arm does not un-fail Sync, because the
// inner pager's dirty data may be gone. n < 0 disarms (but does not clear
// poisoning).
func (p *FaultPager) FailSyncAfter(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncCountdown = n
}

// FailAllocateAfter lets n more allocations succeed, then fails every later
// Allocate with err. n < 0 disarms.
func (p *FaultPager) FailAllocateAfter(n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.allocCountdown = n
	p.allocErr = err
}

// TrackUnsynced starts recording pre-write page images so LoseUnsynced can
// rewind them.
func (p *FaultPager) TrackUnsynced() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trackUnsynced = true
	p.unsynced = make(map[PageID][]byte)
}

// LoseUnsynced rewinds every page written since the last successful Sync to
// its pre-write content: the state a crash leaves when the kernel never got
// the dirty pages to the platter. Pages allocated since the last sync keep
// their slot (file length is not rewound) but lose any content written into
// them. Requires TrackUnsynced.
func (p *FaultPager) LoseUnsynced() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.trackUnsynced {
		return errors.New("pager: LoseUnsynced without TrackUnsynced")
	}
	for id, old := range p.unsynced {
		if old == nil {
			old = make([]byte, PageSize) // page allocated (zeroed) after the last sync
		}
		if err := p.inner.Write(id, old); err != nil {
			return fmt.Errorf("pager: rewind page %d: %w", id, err)
		}
	}
	p.unsynced = make(map[PageID][]byte)
	return nil
}

// WriteCount returns how many Write calls reached this layer (successful or
// not), for building golden operation counts.
func (p *FaultPager) WriteCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes
}

// SyncCount returns how many Sync calls reached this layer.
func (p *FaultPager) SyncCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncs
}

// Allocate implements Pager.
func (p *FaultPager) Allocate() (PageID, error) {
	p.mu.Lock()
	if p.allocCountdown == 0 {
		err := p.allocErr
		p.mu.Unlock()
		return InvalidPageID, err
	}
	if p.allocCountdown > 0 {
		p.allocCountdown--
	}
	track := p.trackUnsynced
	p.mu.Unlock()
	id, err := p.inner.Allocate()
	if err == nil && track {
		p.mu.Lock()
		if p.trackUnsynced {
			if _, seen := p.unsynced[id]; !seen {
				p.unsynced[id] = nil // nil marks "was freshly allocated": rewinds to zero
			}
		}
		p.mu.Unlock()
	}
	return id, err
}

// Read implements Pager, passing straight through.
func (p *FaultPager) Read(id PageID, dst []byte) error { return p.inner.Read(id, dst) }

// Write implements Pager, applying the armed write fault.
func (p *FaultPager) Write(id PageID, data []byte) error {
	p.mu.Lock()
	p.writes++
	fire := p.writeCountdown == 0
	if p.writeCountdown > 0 {
		p.writeCountdown--
	}
	err, tornKeep := p.writeErr, p.tornKeep
	track := p.trackUnsynced
	p.mu.Unlock()

	if track && !fire {
		p.snapshotBeforeWrite(id)
	}
	if fire {
		if tornKeep > 0 {
			if track {
				p.snapshotBeforeWrite(id)
			}
			fp, ok := p.inner.(*FilePager)
			if !ok {
				return fmt.Errorf("pager: torn-write injection needs a *FilePager inner, have %T", p.inner)
			}
			if werr := fp.tornWrite(id, data, tornKeep); werr != nil {
				return werr
			}
		}
		return err
	}
	return p.inner.Write(id, data)
}

// snapshotBeforeWrite records page id's current content once per sync epoch.
func (p *FaultPager) snapshotBeforeWrite(id PageID) {
	p.mu.Lock()
	_, seen := p.unsynced[id]
	p.mu.Unlock()
	if seen {
		return
	}
	old := make([]byte, PageSize)
	if err := p.inner.Read(id, old); err != nil {
		return // unreadable (e.g. already corrupt): nothing to rewind to
	}
	p.mu.Lock()
	if p.trackUnsynced {
		if _, dup := p.unsynced[id]; !dup {
			p.unsynced[id] = old
		}
	}
	p.mu.Unlock()
}

// NumPages implements Pager.
func (p *FaultPager) NumPages() uint64 { return p.inner.NumPages() }

// Stats implements Pager.
func (p *FaultPager) Stats() Stats { return p.inner.Stats() }

// ResetStats implements Pager.
func (p *FaultPager) ResetStats() { p.inner.ResetStats() }

// Sync implements Pager, applying the armed sync fault. A FaultPager whose
// Sync has failed once is poisoned exactly like a FilePager: later Syncs
// keep failing (wrapping ErrSyncPoisoned) even after the arm is cleared,
// because nothing can prove the inner pager's lost dirty data came back.
func (p *FaultPager) Sync() error {
	p.mu.Lock()
	p.syncs++
	if p.syncPoisoned != nil {
		err := p.syncPoisoned
		p.mu.Unlock()
		return fmt.Errorf("%w (first failure: %v)", ErrSyncPoisoned, err)
	}
	if p.syncCountdown == 0 {
		p.syncPoisoned = ErrInjectedSyncFailure
		p.mu.Unlock()
		return ErrInjectedSyncFailure
	}
	if p.syncCountdown > 0 {
		p.syncCountdown--
	}
	p.mu.Unlock()
	if err := p.inner.Sync(); err != nil {
		p.mu.Lock()
		p.syncPoisoned = err
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	if p.trackUnsynced {
		p.unsynced = make(map[PageID][]byte)
	}
	p.mu.Unlock()
	return nil
}

// Close implements Pager.
func (p *FaultPager) Close() error { return p.inner.Close() }
