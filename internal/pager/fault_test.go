package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestFaultPagerTransparentWhenDisarmed(t *testing.T) {
	fp := NewFaultPager(NewMem())
	testPagerBasics(t, fp)
}

func TestFaultPagerWriteFaults(t *testing.T) {
	inner := NewMem()
	fp := NewFaultPager(inner)
	id, err := fp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	good := bytes.Repeat([]byte{1}, PageSize)
	bad := bytes.Repeat([]byte{2}, PageSize)

	fp.FailWriteAfter(1, ErrInjectedENOSPC)
	if err := fp.Write(id, good); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if err := fp.Write(id, bad); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("write past budget = %v, want ENOSPC", err)
	}
	// The fault is sticky until disarmed, like a full disk.
	if err := fp.Write(id, bad); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("second faulted write = %v, want ENOSPC", err)
	}
	// The failed write must not have reached the inner pager.
	got, err := readPage(inner, id)
	if err != nil || !bytes.Equal(got, good) {
		t.Fatalf("inner page changed by failed write: %v", err)
	}
	fp.FailWriteAfter(-1, nil)
	if err := fp.Write(id, bad); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
}

func TestFaultPagerTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	inner, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	fp := NewFaultPager(inner)
	id, err := fp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Write(id, bytes.Repeat([]byte{1}, PageSize)); err != nil {
		t.Fatal(err)
	}

	fp.TearWriteAfter(0, PageSize/2)
	if err := fp.Write(id, bytes.Repeat([]byte{2}, PageSize)); !errors.Is(err, ErrInjectedEIO) {
		t.Fatalf("torn write = %v, want EIO", err)
	}
	// The frame on disk is half new, half old, under a checksum for the
	// full new page: reading it must report corruption, not garbage.
	if _, err := readPage(inner, id); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("torn frame read = %v, want ErrPageCorrupt", err)
	}
}

func TestFaultPagerSyncPoisoning(t *testing.T) {
	fp := NewFaultPager(NewMem())
	if err := fp.Sync(); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	fp.FailSyncAfter(0)
	if err := fp.Sync(); !errors.Is(err, ErrInjectedSyncFailure) {
		t.Fatalf("armed sync = %v, want injected failure", err)
	}
	fp.FailSyncAfter(-1) // disarming must NOT clear the poison
	if err := fp.Sync(); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("post-failure sync = %v, want ErrSyncPoisoned", err)
	}
}

func TestFaultPagerLoseUnsynced(t *testing.T) {
	inner := NewMem()
	fp := NewFaultPager(inner)
	fp.TrackUnsynced()

	id, err := fp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	synced := bytes.Repeat([]byte{1}, PageSize)
	if err := fp.Write(id, synced); err != nil {
		t.Fatal(err)
	}
	if err := fp.Sync(); err != nil {
		t.Fatal(err)
	}

	// Post-sync writes: one update and one fresh page.
	if err := fp.Write(id, bytes.Repeat([]byte{2}, PageSize)); err != nil {
		t.Fatal(err)
	}
	id2, err := fp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Write(id2, bytes.Repeat([]byte{3}, PageSize)); err != nil {
		t.Fatal(err)
	}

	if err := fp.LoseUnsynced(); err != nil {
		t.Fatal(err)
	}
	got, err := readPage(inner, id)
	if err != nil || !bytes.Equal(got, synced) {
		t.Fatalf("page %d not rewound to synced content: %v", id, err)
	}
	got2, err := readPage(inner, id2)
	if err != nil || !bytes.Equal(got2, make([]byte, PageSize)) {
		t.Fatalf("post-sync page %d not rewound to zero: %v", id2, err)
	}
}

func TestFaultPagerAllocateFault(t *testing.T) {
	fp := NewFaultPager(NewMem())
	fp.FailAllocateAfter(1, ErrInjectedENOSPC)
	if _, err := fp.Allocate(); err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Allocate(); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("allocate past budget = %v, want ENOSPC", err)
	}
}
