package storage

// The row directory maps a table's RowIDs to the heap slots holding them.
// RowIDs come from the table's monotonic nextRow counter, so they are dense:
// the directory is an array indexed by RowID, one word per row, cut into
// pages of dirPageSlots words. A word packs the heap RID's page and slot;
// zero is the hole of an absent row. A page is allocated when a row first
// lands in it, grows to the highest slot used (so a small table holds a
// small page), and is freed when its last row is deleted. Pages hang off
// fixed-fan-out page tables, so a RowID anywhere in [0, maxRowID) costs at
// most one page table and one page, never memory in proportion to its value.
// Walking the pages in order yields the live RowIDs ascending, with no sort.
//
// The directory is not persisted: AttachTable rebuilds it from the heap. It
// is guarded by its table's mu.

import (
	"errors"
	"fmt"

	"bdbms/internal/heap"
	"bdbms/internal/pager"
)

const (
	dirPageBits  = 12
	dirPageSlots = 1 << dirPageBits // RowIDs per directory page
	dirTableBits = 16
	dirTableLen  = 1 << dirTableBits // pages per page table
	// maxRowID bounds the RowIDs the directory holds. Its highest RowID costs
	// a 4 096-entry top level (96 KiB), one page table (512 KiB) and one
	// page (32 KiB).
	maxRowID = 1 << 40
)

// errRowIDRange refuses a row whose RowID the directory cannot hold. Live
// inserts never reach it; a corrupt record can.
var errRowIDRange = errors.New("storage: RowID out of range")

// rowDir is the RowID → heap RID directory. tables[i][j] is the page of
// RowIDs [(i<<dirTableBits|j)<<dirPageBits, +dirPageSlots); a nil or short
// entry holds no rows.
type rowDir struct {
	tables [][]*dirPage
	live   int
}

// dirPage is one directory page: live counts its non-hole slots.
type dirPage struct {
	live  int
	slots []uint64
}

// checkRowID refuses a RowID outside [0, maxRowID).
func checkRowID(rowID int64) error {
	if uint64(rowID) >= maxRowID {
		return fmt.Errorf("%w: %d", errRowIDRange, rowID)
	}
	return nil
}

// packRID stores the page one up so that no RID packs to the hole.
func packRID(rid heap.RID) uint64 {
	if uint64(rid.Page) >= 1<<48-1 {
		panic(fmt.Sprintf("storage: heap page %d beyond the row directory's 48-bit page field", rid.Page))
	}
	return (uint64(rid.Page)+1)<<16 | uint64(rid.Slot)
}

func unpackRID(w uint64) heap.RID {
	return heap.RID{Page: pager.PageID(w>>16 - 1), Slot: uint16(w)}
}

// dirPos returns rowID's page table, page and slot positions.
func dirPos(rowID int64) (tbl, pg, slot int) {
	return int(rowID >> (dirPageBits + dirTableBits)), int(rowID>>dirPageBits) & (dirTableLen - 1), int(rowID) & (dirPageSlots - 1)
}

// len returns the number of live rows.
func (d *rowDir) len() int { return d.live }

// page returns the page holding rowID, nil when there is none.
func (d *rowDir) page(rowID int64) (*dirPage, int) {
	if uint64(rowID) >= maxRowID {
		return nil, 0
	}
	ti, pi, si := dirPos(rowID)
	if ti >= len(d.tables) || pi >= len(d.tables[ti]) {
		return nil, 0
	}
	return d.tables[ti][pi], si
}

// get returns row rowID's heap RID; ok is false when the row is absent.
func (d *rowDir) get(rowID int64) (rid heap.RID, ok bool) {
	p, si := d.page(rowID)
	if p == nil || si >= len(p.slots) || p.slots[si] == 0 {
		return heap.RID{}, false
	}
	return unpackRID(p.slots[si]), true
}

// set places row rowID at rid, adding the row when it is absent. rowID must
// have passed checkRowID.
func (d *rowDir) set(rowID int64, rid heap.RID) {
	if checkRowID(rowID) != nil {
		panic(fmt.Sprintf("storage: row directory set of RowID %d", rowID))
	}
	ti, pi, si := dirPos(rowID)
	if ti >= len(d.tables) {
		d.tables = append(d.tables, make([][]*dirPage, ti+1-len(d.tables))...)
	}
	if pi >= len(d.tables[ti]) {
		d.tables[ti] = append(d.tables[ti], make([]*dirPage, pi+1-len(d.tables[ti]))...)
	}
	p := d.tables[ti][pi]
	if p == nil {
		p = &dirPage{}
		d.tables[ti][pi] = p
	}
	if si >= len(p.slots) {
		// Sized exactly: append would round a full page up to 5 120 slots.
		grown := make([]uint64, min(dirPageSlots, max(si+1, 2*len(p.slots))))
		copy(grown, p.slots)
		p.slots = grown
	}
	if p.slots[si] == 0 {
		p.live++
		d.live++
	}
	p.slots[si] = packRID(rid)
}

// del removes row rowID, if present, freeing its page when it was the last.
func (d *rowDir) del(rowID int64) {
	p, si := d.page(rowID)
	if p == nil || si >= len(p.slots) || p.slots[si] == 0 {
		return
	}
	p.slots[si] = 0
	p.live--
	d.live--
	if p.live == 0 {
		ti, pi, _ := dirPos(rowID)
		d.tables[ti][pi] = nil
	}
}

// ascend calls fn for every live row in ascending RowID order until fn
// returns false.
func (d *rowDir) ascend(fn func(rowID int64, rid heap.RID) bool) {
	for ti, tbl := range d.tables {
		for pi, p := range tbl {
			if p == nil {
				continue
			}
			base := int64(ti)<<(dirPageBits+dirTableBits) | int64(pi)<<dirPageBits
			for si, w := range p.slots {
				if w != 0 && !fn(base|int64(si), unpackRID(w)) {
					return
				}
			}
		}
	}
}

// appendIDs appends the live RowIDs to dst in ascending order.
func (d *rowDir) appendIDs(dst []int64) []int64 {
	d.ascend(func(rowID int64, _ heap.RID) bool {
		dst = append(dst, rowID)
		return true
	})
	return dst
}
