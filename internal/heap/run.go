package heap

// Run files are the sequential spill streams behind the executor's external
// operators (merge sort runs, hash-aggregation partitions). Unlike the
// slotted heap File, a run is append-only and read front to back, and its
// records may span page boundaries — so a spilled row is not limited by
// MaxRecordSize. Several runs can grow interleaved on one pager (the grouper
// writes all of its partitions at once): each page carries a next-page
// pointer, so a run is a private chain through the shared spill file.
//
// Page layout (little-endian):
//
//	[0:8)  next page ID (InvalidPageID on the last page of the run)
//	[8:..) payload bytes
//
// The payload is a byte stream of uvarint-length-prefixed records. A writer
// buffers exactly one page; a reader does the same, so the memory cost of an
// open run is one page regardless of its length.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bdbms/internal/pager"
)

const runHeaderSize = 8

// ErrRunExhausted is returned by RunReader.Next after the last record.
var ErrRunExhausted = errors.New("heap: run exhausted")

// Run identifies a finished spill run on its pager.
type Run struct {
	// Head is the first page of the run (InvalidPageID for an empty run).
	Head pager.PageID
	// Records is the number of records the run holds.
	Records uint64
}

// RunWriter appends records to a new run. It buffers one page; Finish flushes
// the tail page and returns the Run handle for reading.
type RunWriter struct {
	pgr     pager.Pager
	page    []byte
	id      pager.PageID
	off     int
	head    pager.PageID
	records uint64
	started bool
	done    bool
}

// NewRunWriter starts an empty run on pgr.
func NewRunWriter(pgr pager.Pager) *RunWriter {
	return &RunWriter{pgr: pgr, head: pager.InvalidPageID}
}

// Append adds one record to the run.
func (w *RunWriter) Append(rec []byte) error {
	if w.done {
		return errors.New("heap: append to finished run")
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if err := w.write(hdr[:n]); err != nil {
		return err
	}
	if err := w.write(rec); err != nil {
		return err
	}
	w.records++
	return nil
}

// write copies b into the run's byte stream, chaining new pages as needed.
func (w *RunWriter) write(b []byte) error {
	for len(b) > 0 {
		if !w.started {
			id, err := w.pgr.Allocate()
			if err != nil {
				return err
			}
			w.started = true
			w.head, w.id = id, id
			w.page = make([]byte, pager.PageSize)
			w.resetPage()
		}
		if w.off == pager.PageSize {
			next, err := w.pgr.Allocate()
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(w.page[0:8], uint64(next))
			if err := w.pgr.Write(w.id, w.page); err != nil {
				return err
			}
			w.id = next
			w.resetPage()
		}
		n := copy(w.page[w.off:], b)
		w.off += n
		b = b[n:]
	}
	return nil
}

func (w *RunWriter) resetPage() {
	for i := range w.page {
		w.page[i] = 0
	}
	binary.LittleEndian.PutUint64(w.page[0:8], uint64(pager.InvalidPageID))
	w.off = runHeaderSize
}

// Records returns the number of records appended so far.
func (w *RunWriter) Records() uint64 { return w.records }

// Finish flushes the tail page and seals the run.
func (w *RunWriter) Finish() (Run, error) {
	if w.done {
		return Run{}, errors.New("heap: run finished twice")
	}
	w.done = true
	if !w.started {
		return Run{Head: pager.InvalidPageID}, nil
	}
	if err := w.pgr.Write(w.id, w.page); err != nil {
		return Run{}, err
	}
	w.page = nil
	return Run{Head: w.head, Records: w.records}, nil
}

// RunReader streams a finished run's records front to back.
type RunReader struct {
	pgr       pager.Pager
	page      []byte
	next      pager.PageID
	off       int
	remaining uint64
	buf       []byte
}

// NewRunReader opens a run for reading.
func NewRunReader(pgr pager.Pager, r Run) *RunReader {
	return &RunReader{pgr: pgr, next: r.Head, off: pager.PageSize, remaining: r.Records}
}

// readByte returns the next payload byte, following the page chain.
func (r *RunReader) readByte() (byte, error) {
	if r.off == pager.PageSize {
		if r.next == pager.InvalidPageID {
			return 0, fmt.Errorf("heap: run truncated: %w", ErrRunExhausted)
		}
		if r.page == nil {
			r.page = make([]byte, pager.PageSize)
		}
		if err := r.pgr.Read(r.next, r.page); err != nil {
			return 0, err
		}
		r.next = pager.PageID(binary.LittleEndian.Uint64(r.page[0:8]))
		r.off = runHeaderSize
	}
	b := r.page[r.off]
	r.off++
	return b, nil
}

// Next returns the next record, or ok == false after the last one. The
// returned slice is owned by the caller (it is re-sliced from an internal
// buffer that is only overwritten by the following Next call).
func (r *RunReader) Next() ([]byte, bool, error) {
	if r.remaining == 0 {
		return nil, false, nil
	}
	r.remaining--
	var n uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return nil, false, errors.New("heap: run record length overflow")
		}
		b, err := r.readByte()
		if err != nil {
			return nil, false, err
		}
		n |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			break
		}
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	rec := r.buf[:n]
	filled := 0
	for filled < int(n) {
		if r.off == pager.PageSize {
			// Advance to the next page in the chain, then copy in bulk.
			b, err := r.readByte()
			if err != nil {
				return nil, false, err
			}
			rec[filled] = b
			filled++
			continue
		}
		c := copy(rec[filled:], r.page[r.off:])
		r.off += c
		filled += c
	}
	return rec, true, nil
}
