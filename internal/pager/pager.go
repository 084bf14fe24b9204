// Package pager provides the lowest storage layer of bdbms: fixed-size pages
// identified by PageID, backed either by a file on disk or by memory. Every
// read and write is counted, because the paper's access-method claims (E2:
// "up to 30% reduction in I/Os for insertion") are expressed in page I/Os.
//
// File-backed pagers store pages in a checksummed on-disk format (format
// version 1): the file starts with a small header identifying the format,
// and every page is written as a frame carrying a CRC32 of its content plus
// the page ID it was written for. Read verifies both, so bit rot, torn
// writes and misdirected writes surface as a *CorruptPageError instead of
// being served as valid data. Files written by older versions of bdbms
// (raw 4096-byte pages, no header) are upgraded in place on open.
package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// PageSize is the logical page size in bytes: the payload every Read returns
// and every Write accepts, matching common DBMS practice.
const PageSize = 4096

// On-disk format (version 1).
const (
	// FormatVersion is the current on-disk page-format version.
	FormatVersion = 1
	// FileHeaderSize is the size of the file header at offset 0.
	FileHeaderSize = 64
	// PageHeaderSize is the per-page frame header: CRC32 (4 bytes),
	// page ID (8 bytes), format version (1 byte), reserved (3 bytes).
	PageHeaderSize = 16
	// PageFrameSize is the on-disk footprint of one page.
	PageFrameSize = PageHeaderSize + PageSize
)

// fileMagic identifies a version-1 bdbms page file.
var fileMagic = [8]byte{'b', 'd', 'b', 'm', 's', 'p', 'g', '1'}

// FrameOffset returns the file offset of page id's frame in the version-1
// format. Exported so fault-injection and corruption tests can reach into a
// data file byte-exactly.
func FrameOffset(id PageID) int64 {
	return FileHeaderSize + int64(id)*PageFrameSize
}

// PageID identifies a page within a pager. IDs are dense and start at 0.
type PageID uint64

// InvalidPageID is a sentinel for "no page".
const InvalidPageID = PageID(^uint64(0))

// Errors returned by pagers.
var (
	// ErrPageNotFound is returned when reading a page that was never allocated.
	ErrPageNotFound = errors.New("pager: page not found")
	// ErrClosed is returned when using a pager after Close.
	ErrClosed = errors.New("pager: closed")
	// ErrPageCorrupt is the sentinel wrapped by every *CorruptPageError;
	// errors.Is(err, ErrPageCorrupt) identifies checksum, page-ID and
	// format violations detected on read.
	ErrPageCorrupt = errors.New("pager: page corrupt")
	// ErrSyncPoisoned marks a pager whose Sync failed at least once. fsync
	// gives no second chances: after a failure the kernel may have dropped
	// the dirty data, so later syncs returning nil would be a lie. The
	// pager stays poisoned until the process re-opens the file.
	ErrSyncPoisoned = errors.New("pager: sync previously failed; durability cannot be trusted")
)

// CorruptPageError reports a page whose on-disk frame failed verification.
// It unwraps to ErrPageCorrupt.
type CorruptPageError struct {
	// Path is the backing file ("" for anonymous temp files).
	Path string
	// Page is the page whose frame failed verification.
	Page PageID
	// Reason says which check failed (checksum, page-ID stamp, version).
	Reason string
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("pager: page %d of %s corrupt: %s", e.Page, e.Path, e.Reason)
}

// Unwrap lets errors.Is(err, ErrPageCorrupt) match.
func (e *CorruptPageError) Unwrap() error { return ErrPageCorrupt }

// Stats counts physical page accesses.
type Stats struct {
	// Reads is the number of page reads served by the backing store.
	Reads uint64
	// Writes is the number of page writes to the backing store.
	Writes uint64
	// Allocs is the number of pages allocated.
	Allocs uint64
}

// Pager is the page-storage abstraction used by the heap, the WAL and the
// disk-resident access methods.
type Pager interface {
	// Allocate reserves a new zeroed page and returns its ID.
	Allocate() (PageID, error)
	// Read copies the content of page id into dst, which must be PageSize
	// long and is owned by the caller: the pager keeps no reference to it,
	// so one buffer can serve any number of reads. On error dst's content
	// is unspecified.
	Read(id PageID, dst []byte) error
	// Write replaces the content of page id. The buffer must be PageSize long.
	Write(id PageID, data []byte) error
	// NumPages returns the number of allocated pages.
	NumPages() uint64
	// Stats returns a snapshot of the I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters (used between benchmark phases).
	ResetStats()
	// Sync forces written pages to stable storage (no-op for memory pagers).
	Sync() error
	// Close releases resources.
	Close() error
}

// --- in-memory pager --------------------------------------------------------

// MemPager is a Pager backed by process memory. It is the default substrate
// for tests, examples and benchmarks: I/O counts are still tracked so the
// experiments can report "simulated I/Os". Memory cannot rot under us the
// way a disk can, so MemPager carries no checksums.
type MemPager struct {
	mu     sync.Mutex
	pages  [][]byte
	stats  Stats
	closed bool
}

// NewMem returns an empty in-memory pager.
func NewMem() *MemPager { return &MemPager{} }

// Allocate implements Pager.
func (p *MemPager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPageID, ErrClosed
	}
	p.pages = append(p.pages, make([]byte, PageSize))
	p.stats.Allocs++
	return PageID(len(p.pages) - 1), nil
}

// Read implements Pager.
func (p *MemPager) Read(id PageID, dst []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if len(dst) != PageSize {
		return fmt.Errorf("pager: read into %d bytes, want %d", len(dst), PageSize)
	}
	p.stats.Reads++
	copy(dst, p.pages[id])
	return nil
}

// Write implements Pager.
func (p *MemPager) Write(id PageID, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if len(data) != PageSize {
		return fmt.Errorf("pager: write of %d bytes, want %d", len(data), PageSize)
	}
	p.stats.Writes++
	copy(p.pages[id], data)
	return nil
}

// NumPages implements Pager.
func (p *MemPager) NumPages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return uint64(len(p.pages))
}

// Stats implements Pager.
func (p *MemPager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats implements Pager.
func (p *MemPager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Sync implements Pager; memory pages have no stable storage to reach.
func (p *MemPager) Sync() error { return nil }

// Close implements Pager.
func (p *MemPager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.pages = nil
	return nil
}

// --- file pager --------------------------------------------------------------

// FilePager is a Pager backed by a single file in the version-1 checksummed
// format: a FileHeaderSize-byte header, then page i's frame at
// FrameOffset(i). It provides durability for the CLI and the persistence
// tests.
type FilePager struct {
	mu sync.Mutex
	// frame is the one on-disk frame buffer every Read, Write and Allocate
	// encodes into or verifies in, so page I/O allocates nothing. mu guards it.
	frame  [PageFrameSize]byte
	f      *os.File
	path   string
	n      uint64
	stats  Stats
	closed bool
	// syncErr, once set, poisons every later Sync (see ErrSyncPoisoned).
	syncErr error
	// removePath, when set, is deleted on Close: OpenTemp pagers own their
	// backing file and clean it up when the spill is done.
	removePath string
}

// OpenFile opens (or creates) a file-backed pager at path. A file written
// by a pre-checksum version of bdbms (raw 4096-byte pages) is transparently
// rewritten into the version-1 format via a temp file and an atomic rename
// before being served.
func OpenFile(path string) (*FilePager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	p, err := initFilePager(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// OpenTemp creates a pager over a fresh temporary file in dir (the system
// temp directory when dir is empty). The file is private to this pager and
// is deleted on Close — it is the spill surface used by the executor's
// external sort and hash-aggregation operators, which need scratch space
// that never outlives the query.
func OpenTemp(dir string) (*FilePager, error) {
	f, err := os.CreateTemp(dir, "bdbms-spill-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("pager: open temp spill file: %w", err)
	}
	p, err := initFilePager(f, f.Name())
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	p.removePath = f.Name()
	return p, nil
}

// initFilePager validates or creates the file header and, when the file
// predates the checksummed format, upgrades it in place.
func initFilePager(f *os.File, path string) (*FilePager, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("pager: stat %s: %w", path, err)
	}
	size := info.Size()
	if size == 0 {
		if _, err := f.WriteAt(encodeFileHeader(), 0); err != nil {
			return nil, fmt.Errorf("pager: init %s: %w", path, err)
		}
		return &FilePager{f: f, path: path}, nil
	}

	magic := make([]byte, len(fileMagic))
	if _, err := f.ReadAt(magic, 0); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("pager: read header of %s: %w", path, err)
	}
	if !bytes.Equal(magic, fileMagic[:]) {
		// Distinguish a genuine pre-checksum file (whole raw pages, no
		// header) from a version-1 file whose superblock rotted: a near-miss
		// magic, or a size that does not fit the raw-page layout, means
		// corruption — reinterpreting a framed file as raw pages would feed
		// garbage to every layer above. Fail stop instead of guessing.
		near := 0
		for i := range fileMagic {
			if magic[i] == fileMagic[i] {
				near++
			}
		}
		if near >= len(fileMagic)/2 || size%PageSize != 0 {
			return nil, fmt.Errorf("%w: %s: file header is damaged (magic matches %d/%d bytes)", ErrPageCorrupt, path, near, len(fileMagic))
		}
		// Pre-checksum file: raw 4096-byte pages starting at offset 0.
		upgraded, err := upgradeLegacyFile(f, path, size)
		if err != nil {
			return nil, err
		}
		return upgraded, nil
	}

	header := make([]byte, FileHeaderSize)
	if _, err := f.ReadAt(header, 0); err != nil {
		return nil, fmt.Errorf("pager: %s: truncated file header: %w", path, err)
	}
	if err := checkFileHeader(header, path); err != nil {
		return nil, err
	}
	// A torn final frame (crash mid-append before the page was ever part of
	// durable state) is dropped by rounding the page count down.
	n := uint64(size-FileHeaderSize) / PageFrameSize
	return &FilePager{f: f, path: path, n: n}, nil
}

// encodeFileHeader renders the version-1 file header.
func encodeFileHeader() []byte {
	h := make([]byte, FileHeaderSize)
	copy(h, fileMagic[:])
	h[8] = FormatVersion
	binary.BigEndian.PutUint32(h[9:13], PageSize)
	binary.BigEndian.PutUint32(h[13:17], crc32.ChecksumIEEE(h[:13]))
	return h
}

// checkFileHeader validates a version-1 file header.
func checkFileHeader(h []byte, path string) error {
	if got, want := crc32.ChecksumIEEE(h[:13]), binary.BigEndian.Uint32(h[13:17]); got != want {
		return fmt.Errorf("%w: %s: file header checksum mismatch", ErrPageCorrupt, path)
	}
	if v := h[8]; v != FormatVersion {
		return fmt.Errorf("pager: %s: unsupported page-format version %d (want %d)", path, v, FormatVersion)
	}
	if ps := binary.BigEndian.Uint32(h[9:13]); ps != PageSize {
		return fmt.Errorf("pager: %s: file has page size %d, build uses %d", path, ps, PageSize)
	}
	return nil
}

// upgradeLegacyFile rewrites a pre-checksum data file (raw pages, no
// header) into the version-1 format. The rewrite goes to a sibling temp
// file which is fsynced and atomically renamed over the original, so a
// crash mid-upgrade leaves the legacy file intact.
func upgradeLegacyFile(f *os.File, path string, size int64) (*FilePager, error) {
	n := uint64(size) / PageSize
	tmpPath := path + ".upgrade"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: upgrade %s: %w", path, err)
	}
	fail := func(err error) (*FilePager, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, err
	}
	if _, err := tmp.WriteAt(encodeFileHeader(), 0); err != nil {
		return fail(fmt.Errorf("pager: upgrade %s: %w", path, err))
	}
	page, frame := make([]byte, PageSize), make([]byte, PageFrameSize)
	for id := uint64(0); id < n; id++ {
		if _, err := f.ReadAt(page, int64(id)*PageSize); err != nil {
			return fail(fmt.Errorf("pager: upgrade %s: read legacy page %d: %w", path, id, err))
		}
		encodeFrame(frame, PageID(id), page)
		if _, err := tmp.WriteAt(frame, FrameOffset(PageID(id))); err != nil {
			return fail(fmt.Errorf("pager: upgrade %s: write page %d: %w", path, id, err))
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("pager: upgrade %s: sync: %w", path, err))
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return fail(fmt.Errorf("pager: upgrade %s: %w", path, err))
	}
	syncDir(filepath.Dir(path))
	f.Close()
	tmp.Close()
	nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: reopen upgraded %s: %w", path, err)
	}
	return &FilePager{f: nf, path: path, n: n}, nil
}

// syncDir fsyncs a directory so a rename inside it is durable. Best-effort:
// some filesystems refuse to fsync directories.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// encodeFrame renders a page frame into frame (PageFrameSize bytes,
// overwritten whole): header (CRC32, page ID, version) then the payload, with
// a nil data meaning a zeroed page. The CRC covers the page ID, version and
// reserved bytes as well as the payload, so a frame written for one page read
// back as another (a misdirected write) fails verification even if the
// payload is intact.
func encodeFrame(frame []byte, id PageID, data []byte) {
	binary.BigEndian.PutUint64(frame[4:12], uint64(id))
	frame[12] = FormatVersion
	clear(frame[13:PageHeaderSize])
	n := copy(frame[PageHeaderSize:], data)
	clear(frame[PageHeaderSize+n:])
	binary.BigEndian.PutUint32(frame[0:4], crc32.ChecksumIEEE(frame[4:]))
}

// verifyFrame checks a frame read for page id and returns its payload.
func verifyFrame(frame []byte, id PageID, path string) ([]byte, error) {
	if got, want := crc32.ChecksumIEEE(frame[4:]), binary.BigEndian.Uint32(frame[0:4]); got != want {
		return nil, &CorruptPageError{Path: path, Page: id, Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
	}
	if stored := PageID(binary.BigEndian.Uint64(frame[4:12])); stored != id {
		return nil, &CorruptPageError{Path: path, Page: id, Reason: fmt.Sprintf("frame is stamped for page %d (misdirected write)", stored)}
	}
	if v := frame[12]; v != FormatVersion {
		return nil, &CorruptPageError{Path: path, Page: id, Reason: fmt.Sprintf("unsupported frame version %d", v)}
	}
	return frame[PageHeaderSize:], nil
}

// Path returns the backing file's path.
func (p *FilePager) Path() string { return p.path }

// Allocate implements Pager.
func (p *FilePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPageID, ErrClosed
	}
	id := PageID(p.n)
	encodeFrame(p.frame[:], id, nil)
	if _, err := p.f.WriteAt(p.frame[:], FrameOffset(id)); err != nil {
		return InvalidPageID, fmt.Errorf("pager: allocate: %w", err)
	}
	p.n++
	p.stats.Allocs++
	return id, nil
}

// Read implements Pager. The frame's checksum and page-ID stamp are
// verified before anything reaches dst; violations return a
// *CorruptPageError wrapping ErrPageCorrupt.
func (p *FilePager) Read(id PageID, dst []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if uint64(id) >= p.n {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if len(dst) != PageSize {
		return fmt.Errorf("pager: read into %d bytes, want %d", len(dst), PageSize)
	}
	if _, err := p.f.ReadAt(p.frame[:], FrameOffset(id)); err != nil {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	payload, err := verifyFrame(p.frame[:], id, p.path)
	if err != nil {
		return err
	}
	copy(dst, payload)
	p.stats.Reads++
	return nil
}

// Write implements Pager, stamping the frame header and checksum.
func (p *FilePager) Write(id PageID, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if uint64(id) >= p.n {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if len(data) != PageSize {
		return fmt.Errorf("pager: write of %d bytes, want %d", len(data), PageSize)
	}
	encodeFrame(p.frame[:], id, data)
	if _, err := p.f.WriteAt(p.frame[:], FrameOffset(id)); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	p.stats.Writes++
	return nil
}

// tornWrite writes a deliberately torn frame for page id: the header and
// the first keep payload bytes come from data, the rest of the frame keeps
// its previous on-disk content. The checksum in the header covers the full
// new payload, so the resulting frame fails verification — exactly what a
// power cut mid-write leaves behind. Test support for FaultPager.
func (p *FilePager) tornWrite(id PageID, data []byte, keep int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if uint64(id) >= p.n {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	encodeFrame(p.frame[:], id, data)
	if _, err := p.f.WriteAt(p.frame[:PageHeaderSize+keep], FrameOffset(id)); err != nil {
		return fmt.Errorf("pager: torn write page %d: %w", id, err)
	}
	p.stats.Writes++
	return nil
}

// NumPages implements Pager.
func (p *FilePager) NumPages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Stats implements Pager.
func (p *FilePager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats implements Pager.
func (p *FilePager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Sync implements Pager, flushing the backing file to stable storage. A
// failed fsync may have dropped dirty pages from the kernel cache, so the
// first failure poisons the pager: every later Sync fails with
// ErrSyncPoisoned instead of pretending the data became durable.
func (p *FilePager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.syncErr != nil {
		return fmt.Errorf("%w (first failure: %v)", ErrSyncPoisoned, p.syncErr)
	}
	if err := p.f.Sync(); err != nil {
		p.syncErr = err
		return fmt.Errorf("pager: sync %s: %w", p.path, err)
	}
	return nil
}

// Close implements Pager. A pager created by OpenTemp also deletes its
// backing file.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.f.Close()
	if p.removePath != "" {
		if rmErr := os.Remove(p.removePath); err == nil && rmErr != nil {
			err = rmErr
		}
	}
	return err
}
