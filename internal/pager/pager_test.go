package pager

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// readPage reads page id into a fresh buffer.
func readPage(p Pager, id PageID) ([]byte, error) {
	buf := make([]byte, PageSize)
	if err := p.Read(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func testPagerBasics(t *testing.T, p Pager) {
	t.Helper()
	id0, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id0 == id1 {
		t.Fatal("allocate must return distinct ids")
	}
	if p.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", p.NumPages())
	}

	data := make([]byte, PageSize)
	copy(data, []byte("hello bdbms"))
	if err := p.Write(id1, data); err != nil {
		t.Fatal(err)
	}
	got, err := readPage(p, id1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	zero, err := readPage(p, id0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, PageSize)) {
		t.Fatal("fresh page must be zeroed")
	}

	if _, err := readPage(p, PageID(99)); err == nil {
		t.Error("reading unallocated page should fail")
	}
	if err := p.Write(PageID(99), data); err == nil {
		t.Error("writing unallocated page should fail")
	}
	if err := p.Write(id0, []byte("short")); err == nil {
		t.Error("short write should fail")
	}
	if err := p.Read(id0, make([]byte, PageSize-1)); err == nil {
		t.Error("read into a short buffer should fail")
	}

	st := p.Stats()
	if st.Reads < 2 || st.Writes < 1 || st.Allocs != 2 {
		t.Errorf("stats = %+v", st)
	}
	p.ResetStats()
	if s := p.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Errorf("ResetStats left %+v", s)
	}
}

func TestMemPager(t *testing.T) {
	p := NewMem()
	testPagerBasics(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); err == nil {
		t.Error("allocate after close should fail")
	}
	if _, err := readPage(p, 0); err == nil {
		t.Error("read after close should fail")
	}
}

func TestFilePager(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	testPagerBasics(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open: pages and contents must persist.
	p2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 2 {
		t.Fatalf("reopened NumPages = %d, want 2", p2.NumPages())
	}
	got, err := readPage(p2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("hello bdbms")) {
		t.Error("persisted page content lost")
	}
}

func TestMemPagerIsolation(t *testing.T) {
	p := NewMem()
	id, _ := p.Allocate()
	data := make([]byte, PageSize)
	data[0] = 42
	if err := p.Write(id, data); err != nil {
		t.Fatal(err)
	}
	got, _ := readPage(p, id)
	got[0] = 99 // mutating the returned buffer must not affect the store
	again, _ := readPage(p, id)
	if again[0] != 42 {
		t.Error("Read must return an isolated copy")
	}
}

// TestFilePagerIOAllocatesNothing: Read, Write and Allocate go through the
// pager's one frame buffer, and Read fills the caller's buffer, so
// steady-state page I/O allocates nothing. One dst serves successive reads
// of different pages.
func TestFilePagerIOAllocatesNothing(t *testing.T) {
	p, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := bytes.Repeat([]byte{'a'}, PageSize), bytes.Repeat([]byte{'b'}, PageSize)
	for _, data := range [][]byte{a, b} {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, PageSize)
	for id, want := range [][]byte{a, b, a} {
		if err := p.Read(PageID(id%2), dst); err != nil || !bytes.Equal(dst, want) {
			t.Fatalf("read %d into a reused buffer: %v", id%2, err)
		}
	}

	if n := testing.AllocsPerRun(100, func() {
		if err := p.Read(1, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FilePager.Read allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Write(0, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FilePager.Write allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FilePager.Allocate allocates %v times per call, want 0", n)
	}
}

func TestOpenTempCleansUp(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenTemp(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, PageSize)
	data[7] = 7
	if err := p.Write(id, data); err != nil {
		t.Fatal(err)
	}
	got, err := readPage(p, id)
	if err != nil || got[7] != 7 {
		t.Fatalf("read back: %v %v", got[7], err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("spill file missing before Close: %v %v", entries, err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err = os.ReadDir(dir)
	if err != nil || len(entries) != 0 {
		t.Fatalf("spill file not removed on Close: %v %v", entries, err)
	}
}
