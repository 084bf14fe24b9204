package storage

// Multi-version row visibility: the mechanism that lets SELECT cursors read a
// stable snapshot while writers mutate tables in place.
//
// The heap always holds the CURRENT row images. Every row change made inside
// a write frame additionally appends a versionEntry — the row's before-image,
// which is also the frame's rollback entry for the change — to its table's
// version list. A Snapshot captures, at creation, the global
// version sequence and the set of write frames still in flight; a version
// entry is invisible to the snapshot exactly when it was created after the
// snapshot (seq > snap.seq) or by a frame the snapshot saw as unfinished.
// Reading a row through a snapshot means: if any invisible entry exists for
// the row, the OLDEST such entry's before-image is what the snapshot sees
// (that is the row as it stood when the snapshot was taken); otherwise the
// current heap image is already the right answer.
//
// Because write frames are serialized by ScopeWAL, the invisible entries of
// any snapshot form a contiguous suffix of each table's version list, and a
// snapshot can fold them into a per-table overlay map incrementally — one
// short read-locked walk per read, no locks held between reads.
//
// Version entries are garbage: once every live snapshot can see an entry's
// frame as finished, the entry's before-image can never be needed again and
// the prefix is pruned (on frame end and snapshot close).

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bdbms/internal/value"
)

// WriteMark identifies one write frame — an auto-commit statement or an
// explicit transaction — for visibility decisions. endSeq is 0 while the
// frame is in flight and set to its finish sequence when it commits or
// aborts.
type WriteMark struct {
	endSeq atomic.Uint64
}

// versionEntry is one recorded row change: the row's before-image (nil: the
// row did not exist — an insert). The mutation appends it (under t.mu) to the
// table's version list and pushes the same entry onto the frame's undo log;
// it is immutable from then on.
type versionEntry struct {
	seq    uint64
	mark   *WriteMark
	table  *Table
	rowID  int64
	before value.Row
}

// Undo reverts the change (undo.Action): the row goes back to its before-image.
func (v *versionEntry) Undo() error { return v.table.Apply(v.rowID, v.before) }

// BeginWrite opens a write frame: registers a mark in the active set and
// installs it as the engine's current mark so mutations tag their version
// entries with it. Frames are serialized by ScopeWAL, so at most one is
// current at a time; the caller must hold ScopeWAL.
func (e *Engine) BeginWrite() *WriteMark {
	m := &WriteMark{}
	e.mvccMu.Lock()
	e.activeMarks[m] = true
	e.mvccMu.Unlock()
	e.curMark.Store(m)
	return m
}

// EndWrite closes a write frame after its effects (commit) or their undo
// (abort) have been applied to the heap. Snapshots created from here on see
// the current heap state for this frame's rows; older snapshots keep reading
// the retained before-images. Prunes version entries no live snapshot needs.
func (e *Engine) EndWrite(m *WriteMark) {
	if m == nil {
		return
	}
	e.curMark.Store(nil)
	e.mvccMu.Lock()
	m.endSeq.Store(e.verSeq.Add(1))
	delete(e.activeMarks, m)
	bound := e.pruneBoundLocked()
	e.mvccMu.Unlock()
	e.pruneVersions(bound, false)
}

// pruneBoundLocked returns the highest finish sequence whose entries are
// provably unneeded: the smallest sequence any live snapshot pinned, clamped
// to the version sequence as of now. The clamp matters because the bound is
// APPLIED after e.mvccMu is released: in that window a write frame can begin,
// mutate and finish, and a snapshot that needs its before-images can be
// created — the frame's finish sequence postdates this bound, so its entries
// survive a prune using it. Entries at or below the bound are visible to
// every present snapshot (their frames finished at or before the oldest
// snapshot's pin) and to every future one (which pins a sequence at least
// this high). Caller holds e.mvccMu.
func (e *Engine) pruneBoundLocked() uint64 {
	bound := e.verSeq.Load()
	for s := range e.snaps {
		if s.seq < bound {
			bound = s.seq
		}
	}
	return bound
}

// pruneEagerLen is the version-list length below which a routine (frame-end)
// prune is skipped. Pruning takes the table's exclusive lock, and that lock
// is write-preferring: taking it after every frame makes a streaming writer
// stall every concurrent snapshot reader's RLock. Batching reclamation to
// every ~pruneEagerLen entries cuts those exclusive acquisitions by the same
// factor while bounding retained garbage to O(pruneEagerLen) per table.
const pruneEagerLen = 64

// pruneVersions drops, from every table, the leading version entries whose
// frames finished at or before bound — no live or future snapshot can need
// their before-images. Prunable entries are always a prefix: frames
// serialize, so finish sequences increase along each list. force bypasses
// the length throttle: the last snapshot's close must reclaim everything it
// pinned, however little, because no later frame end may come.
func (e *Engine) pruneVersions(bound uint64, force bool) {
	for _, t := range e.Tables() {
		t.pruneVersions(bound, force)
	}
}

func (t *Table) pruneVersions(bound uint64, force bool) {
	if !force {
		t.mu.RLock()
		small := len(t.versions) < pruneEagerLen
		t.mu.RUnlock()
		if small {
			return
		}
	}
	t.mu.Lock()
	n := 0
	for n < len(t.versions) {
		end := t.versions[n].mark.endSeq.Load()
		if end == 0 || end > bound {
			break
		}
		n++
	}
	if n > 0 {
		// Advance into the backing array rather than copying the survivors:
		// prune runs on every frame end and snapshot close, and under an
		// interactive-transaction workload the unprunable tail can be long —
		// an O(tail) copy here turns every reader's snapshot close into a
		// stall. The dead prefix is compacted away only once it outweighs
		// the live tail, keeping both the per-prune cost and the retained
		// garbage O(live) amortized.
		t.versions = t.versions[n:]
		t.versionsBase += uint64(n)
		t.versionsDead += n
		if t.versionsDead > len(t.versions) && t.versionsDead > 256 {
			t.versions = append([]*versionEntry(nil), t.versions...)
			t.versionsDead = 0
		}
	}
	t.mu.Unlock()
}

// recordChange records a live row change made inside a write frame, once, for
// both its readers: snapshots take the before-image from the version list,
// the frame's undo log rolls the change back from it. Called with t.mu held,
// by the mutation itself. Table.Apply — redo, and every undo — records
// nothing: outside a frame (recovery, direct storage use in tests) no
// snapshot coexists with it, and inside one the row's original before-image
// is already on the list.
func (t *Table) recordChange(rowID int64, before value.Row) {
	e := t.engine
	m := e.curMark.Load()
	if m == nil {
		return
	}
	v := &versionEntry{seq: e.verSeq.Add(1), mark: m, table: t, rowID: rowID, before: before}
	t.versions = append(t.versions, v)
	if e.undo != nil {
		e.undo.Push(v)
	}
}

// Snapshot is a stable read view of the whole engine: rows read through it
// reflect the committed state at creation time, unaffected by concurrent or
// later writers. Snapshots take no latches; they coordinate with writers
// purely through version entries. A Snapshot is used by one cursor at a
// time but is internally locked, and MUST be closed — an open snapshot pins
// version entries engine-wide.
type Snapshot struct {
	eng    *Engine
	seq    uint64
	active map[*WriteMark]bool

	mu       sync.Mutex
	overlays map[*Table]*tableOverlay
	closed   bool
}

// tableOverlay folds the invisible suffix of one table's version list into a
// rowID-keyed map of the rows that changed since the snapshot was taken, as
// the snapshot sees them (nil: the row did not exist then), advanced
// incrementally as the list grows.
type tableOverlay struct {
	init     bool
	mergedTo uint64 // absolute version index merged through (versionsBase frame)
	rows     map[int64]value.Row
}

// NewSnapshot pins a stable read view of the current committed state.
func (e *Engine) NewSnapshot() *Snapshot {
	s := &Snapshot{eng: e, overlays: make(map[*Table]*tableOverlay)}
	e.mvccMu.Lock()
	s.seq = e.verSeq.Load()
	if len(e.activeMarks) > 0 {
		s.active = make(map[*WriteMark]bool, len(e.activeMarks))
		for m := range e.activeMarks {
			s.active[m] = true
		}
	}
	e.snaps[s] = true
	e.mvccMu.Unlock()
	return s
}

// Close releases the snapshot. Idempotent.
//
// Pruning stays a writer-side job: EndWrite reclaims dead entries after every
// frame, so a closing snapshot prunes only when it is the LAST live one — the
// case where writes may have stopped and whatever the final snapshots pinned
// would otherwise linger until the next frame. Closing while other snapshots
// remain changes no prune bound that matters and skips pruneVersions
// entirely; this keeps reader snapshot closes free of exclusive table locks,
// which would otherwise serialize concurrent point reads against each other
// (the per-table mutex is write-preferring).
func (s *Snapshot) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	e := s.eng
	e.mvccMu.Lock()
	delete(e.snaps, s)
	last := len(e.snaps) == 0
	bound := e.pruneBoundLocked()
	e.mvccMu.Unlock()
	if last {
		e.pruneVersions(bound, true)
	}
}

// invisible reports whether the version entry postdates the snapshot.
func (s *Snapshot) invisible(e *versionEntry) bool {
	return e.seq > s.seq || s.active[e.mark]
}

func (s *Snapshot) overlayFor(t *Table) *tableOverlay {
	ov := s.overlays[t]
	if ov == nil {
		ov = &tableOverlay{rows: make(map[int64]value.Row)}
		s.overlays[t] = ov
	}
	return ov
}

// mergeLocked advances the overlay over version entries appended since the
// last merge. For each row the OLDEST invisible entry wins: its before-image
// is the row as the snapshot must see it. Caller holds s.mu and t.mu (read).
func (s *Snapshot) mergeLocked(ov *tableOverlay, t *Table) {
	end := t.versionsBase + uint64(len(t.versions))
	var start uint64
	if !ov.init {
		// First touch: the invisible entries form a suffix (frames are
		// serialized); scan back to where it starts.
		i := len(t.versions)
		for i > 0 && s.invisible(t.versions[i-1]) {
			i--
		}
		start = t.versionsBase + uint64(i)
		ov.init = true
	} else {
		if ov.mergedTo >= end {
			return
		}
		start = ov.mergedTo
		if start < t.versionsBase {
			// Entries pruned from under us were visible to every live
			// snapshot (including this one), so nothing was missed.
			start = t.versionsBase
		}
	}
	for abs := start; abs < end; abs++ {
		e := t.versions[abs-t.versionsBase]
		if !s.invisible(e) {
			continue
		}
		if _, ok := ov.rows[e.rowID]; !ok {
			ov.rows[e.rowID] = e.before
		}
	}
	ov.mergedTo = end
}

// Get returns the row as of the snapshot, or ErrRowNotFound when the row did
// not exist then (including rows inserted after the snapshot was taken).
func (s *Snapshot) Get(t *Table, rowID int64) (value.Row, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ov := s.overlayFor(t)
	t.mu.RLock()
	s.mergeLocked(ov, t)
	if r, ok := ov.rows[rowID]; ok {
		t.mu.RUnlock()
		if r == nil {
			return nil, fmt.Errorf("%w: %s row %d", ErrRowNotFound, t.schema.Name, rowID)
		}
		return r.Clone(), nil
	}
	// Unchanged since the snapshot: the current heap image is the answer.
	row, _, err := t.stored(rowID)
	t.mu.RUnlock()
	if err == nil && row == nil {
		err = fmt.Errorf("%w: %s row %d", ErrRowNotFound, t.schema.Name, rowID)
	}
	return row, err
}

// RowIDs returns the RowIDs live as of the snapshot, ascending: the current
// rows plus rows that existed at snapshot time but were deleted since.
// RowIDs of post-snapshot inserts are included as candidates — Get resolves
// them to ErrRowNotFound, which scans skip — keeping this a cheap superset.
func (s *Snapshot) RowIDs(t *Table) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ov := s.overlayFor(t)
	t.mu.RLock()
	s.mergeLocked(ov, t)
	ids := make([]int64, 0, len(t.rowIndex)+len(ov.rows))
	for id := range t.rowIndex {
		ids = append(ids, id)
	}
	t.mu.RUnlock()
	for id, r := range ov.rows {
		if r != nil {
			ids = append(ids, id)
		}
	}
	return sortDedupeIDs(ids)
}

// AugmentRowIDs widens an index-probe candidate list with every row the
// snapshot sees differently from the current state. Index trees reflect the
// CURRENT rows, so a probe can miss rows whose snapshot-time values matched
// the probed key but were updated or deleted since; the overlay holds
// exactly those rows. Callers re-evaluate their predicates per row, so a
// superset is safe.
func (s *Snapshot) AugmentRowIDs(t *Table, ids []int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ov := s.overlayFor(t)
	t.mu.RLock()
	s.mergeLocked(ov, t)
	t.mu.RUnlock()
	if len(ov.rows) == 0 {
		return ids
	}
	merged := make([]int64, 0, len(ids)+len(ov.rows))
	merged = append(merged, ids...)
	for id, r := range ov.rows {
		if r != nil {
			merged = append(merged, id)
		}
	}
	return sortDedupeIDs(merged)
}

func sortDedupeIDs(ids []int64) []int64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	var prev int64
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		out = append(out, id)
		prev = id
	}
	return out
}
