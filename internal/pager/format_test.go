package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writePages opens a file pager at path, allocates n pages with
// recognizable content, closes it and returns the payloads.
func writePages(t *testing.T, path string, n int) [][]byte {
	t.Helper()
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(i + 1)}, PageSize)
		if err := p.Write(id, data); err != nil {
			t.Fatal(err)
		}
		payloads[i] = data
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return payloads
}

func TestReadDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	writePages(t, path, 3)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in page 1.
	raw[FrameOffset(1)+PageHeaderSize+100] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := readPage(p, 0); err != nil {
		t.Errorf("untouched page 0 unreadable: %v", err)
	}
	_, err = readPage(p, 1)
	if !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("bit flip not detected: err = %v", err)
	}
	var cp *CorruptPageError
	if !errors.As(err, &cp) {
		t.Fatalf("error is not a *CorruptPageError: %v", err)
	}
	if cp.Page != 1 || cp.Path != path {
		t.Errorf("CorruptPageError = %+v, want page 1 of %s", cp, path)
	}
	if _, err := readPage(p, 2); err != nil {
		t.Errorf("untouched page 2 unreadable: %v", err)
	}
}

func TestReadDetectsHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	writePages(t, path, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[FrameOffset(0)+5] ^= 0x01 // flip a bit inside the stored page ID
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := readPage(p, 0); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("header corruption not detected: err = %v", err)
	}
}

// TestReadDetectsMisdirectedWrite swaps two intact frames: each one has a
// valid checksum, but the page-ID stamp catches the misdirection.
func TestReadDetectsMisdirectedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	writePages(t, path, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f0 := append([]byte(nil), raw[FrameOffset(0):FrameOffset(1)]...)
	f1 := append([]byte(nil), raw[FrameOffset(1):FrameOffset(2)]...)
	copy(raw[FrameOffset(0):], f1)
	copy(raw[FrameOffset(1):], f0)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for id := PageID(0); id < 2; id++ {
		_, err := readPage(p, id)
		if !errors.Is(err, ErrPageCorrupt) {
			t.Errorf("swapped page %d not detected: err = %v", id, err)
		}
	}
}

// TestTornTrailingFrameDropped: a crash mid-append leaves a partial final
// frame; the pager must round the page count down rather than serve it.
func TestTornTrailingFrameDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	writePages(t, path, 2)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-PageFrameSize/2); err != nil {
		t.Fatal(err)
	}
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if n := p.NumPages(); n != 1 {
		t.Fatalf("NumPages = %d after torn tail, want 1", n)
	}
	if _, err := readPage(p, 0); err != nil {
		t.Errorf("intact page 0 unreadable: %v", err)
	}
}

// TestLegacyFileUpgrade: a file written in the pre-checksum layout (raw
// 4096-byte pages at offset 0) must open transparently, serve its pages,
// and be rewritten into the version-1 format.
func TestLegacyFileUpgrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.db")
	legacy := make([]byte, 3*PageSize)
	for i := 0; i < 3; i++ {
		for j := 0; j < PageSize; j++ {
			legacy[i*PageSize+j] = byte(i + 10)
		}
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := OpenFile(path)
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	if n := p.NumPages(); n != 3 {
		t.Fatalf("NumPages = %d, want 3", n)
	}
	for id := PageID(0); id < 3; id++ {
		got, err := readPage(p, id)
		if err != nil {
			t.Fatalf("read upgraded page %d: %v", id, err)
		}
		if got[0] != byte(id+10) || got[PageSize-1] != byte(id+10) {
			t.Errorf("page %d content lost in upgrade", id)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// The file is now in the checksummed format.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw[:len(fileMagic)], fileMagic[:]) {
		t.Fatal("upgraded file is missing the format magic")
	}
	if want := FileHeaderSize + 3*int64(PageFrameSize); int64(len(raw)) != want {
		t.Errorf("upgraded file is %d bytes, want %d", len(raw), want)
	}
	// No upgrade temp file left behind.
	if _, err := os.Stat(path + ".upgrade"); !os.IsNotExist(err) {
		t.Errorf("upgrade temp file left behind: %v", err)
	}

	// Second open takes the fast path and still serves the data.
	p2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got, err := readPage(p2, 2)
	if err != nil || got[0] != 12 {
		t.Fatalf("second open read: %v %v", got[0], err)
	}
}

func TestCorruptFileHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	writePages(t, path, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[9] ^= 0xFF // page-size field: header checksum no longer matches
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("corrupt file header not rejected: err = %v", err)
	}
}

// TestSyncPoisoning: after one failed fsync the pager must never again
// report durability. Real fsync failures are hard to produce, so the test
// closes the underlying descriptor out from under the pager.
func TestSyncPoisoning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	p.f.Close() // sabotage: the next fsync fails with EBADF
	if err := p.Sync(); err == nil {
		t.Fatal("sync on closed descriptor should fail")
	} else if errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("first failure should surface the real error, got %v", err)
	}
	// Even though fsync would now "succeed" is moot — the pager is poisoned.
	if err := p.Sync(); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("second sync = %v, want ErrSyncPoisoned", err)
	}
	p.mu.Lock()
	p.closed = true // avoid double-close panic paths in Close
	p.mu.Unlock()
}
