// Package heap implements slotted-page heap files over the buffer pool. A
// heap file stores variable-length records addressed by RID (page, slot);
// tables in the storage engine keep their encoded rows here.
//
// Page layout (all integers little-endian):
//
//	[0:2)  numSlots   uint16
//	[2:4)  freeStart  uint16  -- offset where record space begins (grows down)
//	[4:..) slot directory, 4 bytes per slot: offset uint16, length uint16
//	...    free space
//	...    record data packed at the end of the page
//
// A slot with length 0 is a tombstone (deleted record).
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bdbms/internal/buffer"
	"bdbms/internal/pager"
)

const (
	headerSize = 4
	slotSize   = 4
)

// MaxRecordSize is the largest record a heap file accepts: it must fit in a
// single page alongside the header and one slot.
const MaxRecordSize = pager.PageSize - headerSize - slotSize

// RID identifies a record within a heap file.
type RID struct {
	Page pager.PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Errors returned by heap files.
var (
	// ErrRecordTooLarge is returned when a record exceeds MaxRecordSize.
	ErrRecordTooLarge = errors.New("heap: record too large")
	// ErrNotFound is returned when a RID does not reference a live record.
	ErrNotFound = errors.New("heap: record not found")
	// ErrPageCorrupt is returned when a page's slotted structure is
	// malformed: a slot directory overrunning the record space, or a record
	// extent outside the page. The pager's checksums catch disk-level rot
	// before it gets here; this guards the logical layout, so garbage can
	// never be handed up as a record (or panic a scan).
	ErrPageCorrupt = errors.New("heap: page structure corrupt")
)

// File is a heap file: an ordered list of pages managed through a buffer pool.
type File struct {
	pool  *buffer.Pool
	pages []pager.PageID
	count int // live records
}

// New creates an empty heap file on the given pool.
func New(pool *buffer.Pool) *File {
	return &File{pool: pool}
}

// Open re-attaches a heap file to the pages it previously used (in page
// order). The record count is recomputed by scanning.
func Open(pool *buffer.Pool, pages []pager.PageID) (*File, error) {
	f := &File{pool: pool, pages: append([]pager.PageID(nil), pages...)}
	count := 0
	err := f.Scan(func(RID, []byte) bool {
		count++
		return true
	})
	if err != nil {
		return nil, err
	}
	f.count = count
	return f, nil
}

// Pages returns the page IDs backing this heap file, in order.
func (f *File) Pages() []pager.PageID {
	return append([]pager.PageID(nil), f.pages...)
}

// Count returns the number of live records.
func (f *File) Count() int { return f.count }

type pageHeader struct {
	numSlots  uint16
	freeStart uint16
}

func readHeader(p []byte) pageHeader {
	return pageHeader{
		numSlots:  binary.LittleEndian.Uint16(p[0:2]),
		freeStart: binary.LittleEndian.Uint16(p[2:4]),
	}
}

func writeHeader(p []byte, h pageHeader) {
	binary.LittleEndian.PutUint16(p[0:2], h.numSlots)
	binary.LittleEndian.PutUint16(p[2:4], h.freeStart)
}

func readSlot(p []byte, i uint16) (offset, length uint16) {
	base := headerSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p[base : base+2]), binary.LittleEndian.Uint16(p[base+2 : base+4])
}

func writeSlot(p []byte, i uint16, offset, length uint16) {
	base := headerSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], offset)
	binary.LittleEndian.PutUint16(p[base+2:base+4], length)
}

// checkPage validates the slotted-page invariants: the slot directory and
// the record space must not overlap, and every live slot must reference an
// extent inside the page at or above freeStart.
func checkPage(id pager.PageID, data []byte) error {
	h := readHeader(data)
	if h.freeStart == 0 {
		if h.numSlots != 0 {
			return fmt.Errorf("%w: page %d: %d slots on an unformatted page", ErrPageCorrupt, id, h.numSlots)
		}
		return nil
	}
	if int(h.freeStart) > pager.PageSize || headerSize+int(h.numSlots)*slotSize > int(h.freeStart) {
		return fmt.Errorf("%w: page %d: %d slots with record space starting at %d", ErrPageCorrupt, id, h.numSlots, h.freeStart)
	}
	for s := uint16(0); s < h.numSlots; s++ {
		offset, length := readSlot(data, s)
		if length == 0 {
			continue
		}
		if int(offset) < int(h.freeStart) || int(offset)+int(length) > pager.PageSize {
			return fmt.Errorf("%w: page %d slot %d: record [%d:%d) outside the record space", ErrPageCorrupt, id, s, offset, int(offset)+int(length))
		}
	}
	return nil
}

// checkSlot bounds-checks one slot's extent (the cheap per-access guard;
// Scan and Open run the full checkPage).
func checkSlot(id pager.PageID, s uint16, offset, length uint16) error {
	if int(offset)+int(length) > pager.PageSize || int(offset) < headerSize {
		return fmt.Errorf("%w: page %d slot %d: record [%d:%d) outside the page", ErrPageCorrupt, id, s, offset, int(offset)+int(length))
	}
	return nil
}

// freeSpace returns the free bytes between the slot directory and record data.
func freeSpace(h pageHeader) int {
	if h.freeStart == 0 {
		// Fresh page: record space starts at the end.
		return pager.PageSize - headerSize
	}
	return int(h.freeStart) - headerSize - int(h.numSlots)*slotSize
}

// Insert appends a record and returns its RID.
func (f *File) Insert(record []byte) (RID, error) {
	if len(record) > MaxRecordSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(record))
	}
	need := len(record) + slotSize
	// Placement rule: the last page (append-mostly workloads), then the one
	// before it, then extend the file. Space freed further back is not
	// reused, which keeps an insert independent of the file's length.
	for back := 1; back <= 2 && back <= len(f.pages); back++ {
		rid, ok, err := f.tryInsert(f.pages[len(f.pages)-back], record, need)
		if err != nil {
			return RID{}, err
		}
		if ok {
			f.count++
			return rid, nil
		}
	}
	id, data, err := f.pool.Allocate()
	if err != nil {
		return RID{}, err
	}
	writeHeader(data, pageHeader{numSlots: 0, freeStart: pager.PageSize})
	f.pool.MarkDirty(id)
	if err := f.pool.Unpin(id); err != nil {
		return RID{}, err
	}
	f.pages = append(f.pages, id)
	rid, ok, err := f.tryInsert(id, record, need)
	if err != nil {
		return RID{}, err
	}
	if !ok {
		return RID{}, errors.New("heap: fresh page cannot hold record")
	}
	f.count++
	return rid, nil
}

func (f *File) tryInsert(id pager.PageID, record []byte, need int) (RID, bool, error) {
	data, err := f.pool.Fetch(id)
	if err != nil {
		return RID{}, false, err
	}
	defer f.pool.Unpin(id)
	h := readHeader(data)
	if h.freeStart == 0 {
		h.freeStart = pager.PageSize
	}
	if freeSpace(h) < need {
		return RID{}, false, nil
	}
	offset := h.freeStart - uint16(len(record))
	copy(data[offset:], record)
	slot := h.numSlots
	writeSlot(data, slot, offset, uint16(len(record)))
	h.numSlots++
	h.freeStart = offset
	writeHeader(data, h)
	f.pool.MarkDirty(id)
	return RID{Page: id, Slot: slot}, true, nil
}

// Get returns the record at rid.
func (f *File) Get(rid RID) ([]byte, error) {
	data, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer f.pool.Unpin(rid.Page)
	h := readHeader(data)
	if rid.Slot >= h.numSlots {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	offset, length := readSlot(data, rid.Slot)
	if length == 0 {
		return nil, fmt.Errorf("%w: %s (deleted)", ErrNotFound, rid)
	}
	if err := checkSlot(rid.Page, rid.Slot, offset, length); err != nil {
		return nil, err
	}
	out := make([]byte, length)
	copy(out, data[offset:int(offset)+int(length)])
	return out, nil
}

// Delete tombstones the record at rid.
func (f *File) Delete(rid RID) error {
	data, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(rid.Page)
	h := readHeader(data)
	if rid.Slot >= h.numSlots {
		return fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	offset, length := readSlot(data, rid.Slot)
	if length == 0 {
		return fmt.Errorf("%w: %s (already deleted)", ErrNotFound, rid)
	}
	if err := checkSlot(rid.Page, rid.Slot, offset, length); err != nil {
		return err
	}
	writeSlot(data, rid.Slot, offset, 0)
	f.pool.MarkDirty(rid.Page)
	f.count--
	return nil
}

// Update replaces the record at rid. When the new record still fits in the
// original slot it is updated in place and the same RID is returned;
// otherwise the old record is deleted and the new one inserted elsewhere,
// returning the new RID.
func (f *File) Update(rid RID, record []byte) (RID, error) {
	if len(record) > MaxRecordSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(record))
	}
	data, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return RID{}, err
	}
	h := readHeader(data)
	if rid.Slot >= h.numSlots {
		f.pool.Unpin(rid.Page)
		return RID{}, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	offset, length := readSlot(data, rid.Slot)
	if length == 0 {
		f.pool.Unpin(rid.Page)
		return RID{}, fmt.Errorf("%w: %s (deleted)", ErrNotFound, rid)
	}
	if err := checkSlot(rid.Page, rid.Slot, offset, length); err != nil {
		f.pool.Unpin(rid.Page)
		return RID{}, err
	}
	if len(record) <= int(length) {
		copy(data[offset:], record)
		writeSlot(data, rid.Slot, offset, uint16(len(record)))
		f.pool.MarkDirty(rid.Page)
		f.pool.Unpin(rid.Page)
		return rid, nil
	}
	f.pool.Unpin(rid.Page)
	if err := f.Delete(rid); err != nil {
		return RID{}, err
	}
	return f.Insert(record)
}

// Scan calls fn for every live record in file order. Iteration stops early
// when fn returns false.
func (f *File) Scan(fn func(rid RID, record []byte) bool) error {
	for _, id := range f.pages {
		data, err := f.pool.Fetch(id)
		if err != nil {
			return err
		}
		if err := checkPage(id, data); err != nil {
			f.pool.Unpin(id)
			return err
		}
		h := readHeader(data)
		stop := false
		for s := uint16(0); s < h.numSlots; s++ {
			offset, length := readSlot(data, s)
			if length == 0 {
				continue
			}
			rec := make([]byte, length)
			copy(rec, data[offset:int(offset)+int(length)])
			if !fn(RID{Page: id, Slot: s}, rec) {
				stop = true
				break
			}
		}
		if err := f.pool.Unpin(id); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}
