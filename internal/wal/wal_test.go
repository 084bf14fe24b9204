package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestMemoryAppendIterate(t *testing.T) {
	l := NewMemory()
	lsn1, err := l.Append(KindInsert, "Gene", []byte("row1"))
	if err != nil {
		t.Fatal(err)
	}
	lsn2, _ := l.Append(KindDelete, "Gene", []byte("row1"))
	if lsn1 != 1 || lsn2 != 2 {
		t.Errorf("LSNs = %d, %d", lsn1, lsn2)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
	recs := l.Records()
	if recs[0].Kind != KindInsert || recs[1].Kind != KindDelete {
		t.Error("kinds wrong")
	}
	if recs[0].Table != "Gene" || string(recs[0].Payload) != "row1" {
		t.Error("payload wrong")
	}
	var seen int
	l.Iterate(func(r Record) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Errorf("early stop visited %d", seen)
	}
	since := l.Since(1)
	if len(since) != 1 || since[0].LSN != 2 {
		t.Errorf("Since(1) = %v", since)
	}
	if err := l.Close(); err != nil {
		t.Errorf("memory close: %v", err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindInsert: "INSERT", KindUpdate: "UPDATE", KindDelete: "DELETE",
		KindApproval: "APPROVAL", KindCheckpoint: "CHECKPOINT", KindAnnotation: "ANNOTATION",
		Kind(99): "KIND(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}

func TestFileLogPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := l.Append(KindUpdate, "Protein", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 100 {
		t.Fatalf("replayed %d records", l2.Len())
	}
	recs := l2.Records()
	if recs[99].LSN != 100 || recs[99].Payload[0] != 99 {
		t.Error("replayed record content wrong")
	}
	// Appending after reopen continues the LSN sequence.
	lsn, err := l2.Append(KindCheckpoint, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 101 {
		t.Errorf("next LSN = %d, want 101", lsn)
	}
}

func TestCorruptLogDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(KindInsert, "T", []byte("payload-one"))
	firstLen, _ := os.Stat(path)
	l.Append(KindInsert, "T", []byte("payload-two"))
	l.Close()

	// Flip a byte inside the FIRST record: intact records follow, so this is
	// real corruption (bit rot), not a crash signature, and open must fail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstLen.Size()-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("mid-log corruption should fail to open")
	}
}

func TestChecksumTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := Open(path)
	l.Append(KindInsert, "T", []byte("first"))
	l.Append(KindInsert, "T", []byte("second"))
	l.Close()

	// Flip a byte inside the FINAL record's frame: the frame is full length
	// but its bytes were only partially flushed before the crash. Reopen
	// truncates to the last intact record.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("checksum-torn tail should be recoverable: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 1 || string(l2.Records()[0].Payload) != "first" {
		t.Errorf("replayed %d records, want the 1 intact one", l2.Len())
	}
}

func TestTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := Open(path)
	l.Append(KindInsert, "T", []byte("first"))
	l.Append(KindInsert, "T", []byte("second"))
	l.Close()

	data, _ := os.ReadFile(path)
	intact := len(data)
	// Drop the last 4 bytes, tearing the final record's frame — the on-disk
	// signature of a crash mid-append. Reopen keeps the intact prefix.
	os.WriteFile(path, data[:intact-4], 0o644)
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail should be recoverable: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 1 {
		t.Fatalf("replayed %d records, want the 1 intact one", l2.Len())
	}
	if string(l2.Records()[0].Payload) != "first" {
		t.Error("intact prefix content wrong")
	}
	// The torn bytes are discarded, so the next append lands on a clean
	// record boundary and survives another reopen.
	if _, err := l2.Append(KindInsert, "T", []byte("third")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Len() != 2 || string(l3.Records()[1].Payload) != "third" {
		t.Errorf("post-tear append not durable: %d records", l3.Len())
	}
}

func TestTruncatePreservesLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(KindInsert, "T", []byte("a"))
	l.Append(KindInsert, "T", []byte("b"))
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Errorf("Len after truncate = %d", l.Len())
	}
	lsn, err := l.Append(KindInsert, "T", []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Errorf("LSN after truncate = %d, want 3 (counter preserved)", lsn)
	}
	if info, _ := os.Stat(path); info.Size() == 0 {
		t.Error("post-truncate append did not reach the file")
	}
}

func TestEnsureNextLSN(t *testing.T) {
	l := NewMemory()
	l.EnsureNextLSN(50)
	if lsn, _ := l.Append(KindInsert, "T", nil); lsn != 50 {
		t.Errorf("LSN = %d, want 50", lsn)
	}
	l.EnsureNextLSN(10) // lower floors are ignored
	if lsn, _ := l.Append(KindInsert, "T", nil); lsn != 51 {
		t.Errorf("LSN = %d, want 51", lsn)
	}
}

func TestFailAfterInjectsFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.FailAfter(2)
	for i := 0; i < 2; i++ {
		if _, err := l.Append(KindInsert, "T", []byte{byte(i)}); err != nil {
			t.Fatalf("append %d before fault point: %v", i, err)
		}
	}
	if _, err := l.Append(KindInsert, "T", []byte{9}); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("append past fault point = %v, want ErrInjectedFailure", err)
	}
	if _, err := l.Append(KindInsert, "T", []byte{9}); !errors.Is(err, ErrInjectedFailure) {
		t.Fatal("fault point should stay tripped")
	}
	if l.Len() != 2 {
		t.Errorf("failed appends leaked into memory: Len = %d", l.Len())
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		t.Errorf("failed appends leaked to disk: Len = %d", l2.Len())
	}
	l2.FailAfter(-1)
	if _, err := l2.Append(KindInsert, "T", nil); err != nil {
		t.Errorf("disarmed fault point still fails: %v", err)
	}
}

// TestConcurrentReadersAndAppenders is the -race regression test for the
// snapshot contract of Records/Since/Iterate: readers must never observe a
// slice that concurrent Appends mutate — nor, on a file-backed log, which
// serves them by reading the file, a half-appended record.
func TestConcurrentReadersAndAppenders(t *testing.T) {
	t.Run("memory", func(t *testing.T) { testConcurrentReadersAndAppenders(t, NewMemory()) })
	t.Run("file", func(t *testing.T) {
		l, err := Open(filepath.Join(t.TempDir(), "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		testConcurrentReadersAndAppenders(t, l)
	})
}

func testConcurrentReadersAndAppenders(t *testing.T, l *Log) {
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				if _, err := l.Append(KindInsert, "T", []byte{byte(w)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := l.Records()
				for i, rec := range recs {
					if rec.LSN != uint64(i+1) {
						t.Errorf("snapshot not LSN-dense at %d: %d", i, rec.LSN)
						return
					}
				}
				since := l.Since(uint64(len(recs) / 2))
				for i := 1; i < len(since); i++ {
					if since[i].LSN != since[i-1].LSN+1 {
						t.Error("Since snapshot not contiguous")
						return
					}
				}
				l.Iterate(func(Record) bool { return true })
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if l.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", l.Len())
	}
}

func TestOpenBadPath(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing-dir", "wal.log")); err == nil {
		t.Error("open in missing directory should fail")
	}
}

// --- transaction framing ------------------------------------------------------

func kinds(l *Log) []Kind {
	var out []Kind
	for _, rec := range l.Records() {
		out = append(out, rec.Kind)
	}
	return out
}

func kindsEqual(got, want []Kind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestLazyFrameMaterializesOnFirstDataRecord(t *testing.T) {
	l := NewMemory()
	if err := l.BeginTx(true); err != nil {
		t.Fatal(err)
	}
	if !l.InTx() {
		t.Fatal("lazy frame not armed")
	}
	// A frame with no data records commits without touching the log.
	if err := l.CommitTx(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("empty lazy frame wrote %d records, want 0", l.Len())
	}

	// With data records, the TxBegin appears exactly before the first one.
	if err := l.BeginTx(true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindInsert, "t", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindInsert, "t", []byte("r2")); err != nil {
		t.Fatal(err)
	}
	if got := l.FrameRecords(); got != 2 {
		t.Fatalf("FrameRecords = %d, want 2", got)
	}
	if err := l.CommitTx(); err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindTxBegin, KindInsert, KindInsert, KindTxCommit}
	if got := kinds(l); !kindsEqual(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestEagerFrameAndAbort(t *testing.T) {
	l := NewMemory()
	if err := l.BeginTx(false); err != nil {
		t.Fatal(err)
	}
	if err := l.BeginTx(false); err == nil {
		t.Fatal("nested BeginTx succeeded")
	}
	if _, err := l.Append(KindDelete, "t", nil); err != nil {
		t.Fatal(err)
	}
	if err := l.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if l.InTx() {
		t.Fatal("frame still open after abort")
	}
	want := []Kind{KindTxBegin, KindDelete, KindTxAbort}
	if got := kinds(l); !kindsEqual(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	// Control records never count as frame data.
	if err := l.BeginTx(false); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindTxSavepoint, "", []byte("s1")); err != nil {
		t.Fatal(err)
	}
	if got := l.FrameRecords(); got != 0 {
		t.Fatalf("FrameRecords after control record = %d, want 0", got)
	}
	if err := l.CommitTx(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameTailServesTheOpenFrame: the open frame is read back from the log,
// data records only, from a mark on — and nothing of an earlier frame or of
// the records before it, for either kind of log.
func TestFrameTailServesTheOpenFrame(t *testing.T) {
	file, err := Open(filepath.Join(t.TempDir(), "frame.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, l := range map[string]*Log{"memory": NewMemory(), "file": file} {
		tail := func(mark int) string {
			t.Helper()
			recs, err := l.FrameTail(mark)
			if err != nil {
				t.Fatalf("%s: FrameTail(%d): %v", name, mark, err)
			}
			var out []string
			for _, rec := range recs {
				out = append(out, string(rec.Payload))
			}
			return strings.Join(out, ",")
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		app := func(kind Kind, payload string) {
			t.Helper()
			_, err := l.Append(kind, "t", []byte(payload))
			must(err)
		}
		app(KindInsert, "bare")
		must(l.BeginTx(false))
		app(KindInsert, "old")
		must(l.CommitTx())
		if got := tail(0); got != "" {
			t.Fatalf("%s: FrameTail without a frame = %q", name, got)
		}
		must(l.BeginTx(true))
		if got := tail(0); got != "" {
			t.Fatalf("%s: FrameTail of an armed, empty lazy frame = %q", name, got)
		}
		app(KindInsert, "a")
		app(KindTxSavepoint, "s")
		mark := l.FrameRecords()
		app(KindUpdate, "b")
		app(KindAnnotation, "c")
		if got := tail(0); got != "a,b,c" {
			t.Fatalf("%s: FrameTail(0) = %q, want a,b,c", name, got)
		}
		if got := tail(mark); got != "b,c" {
			t.Fatalf("%s: FrameTail(%d) = %q, want b,c", name, mark, got)
		}
		must(l.AbortTx())
		if got := tail(0); got != "" {
			t.Fatalf("%s: FrameTail after abort = %q", name, got)
		}
	}
}

func TestTruncateFromDropsTailOnDiskAndMemory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsn, err := l.Append(KindInsert, "table", []byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.TruncateFrom(lsns[3]); err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len after TruncateFrom = %d, want 3", got)
	}
	// The LSN counter keeps ascending past the cut.
	lsn, err := l.Append(KindDelete, "table", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= lsns[4] {
		t.Fatalf("post-truncation LSN %d did not ascend past %d", lsn, lsns[4])
	}
	l.Close()

	// Reopen from disk: the truncated records must be gone, the survivors
	// and the post-truncation append intact.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := re.Records()
	if len(recs) != 4 {
		t.Fatalf("reopened log holds %d records, want 4", len(recs))
	}
	for i := 0; i < 3; i++ {
		if recs[i].LSN != lsns[i] {
			t.Fatalf("record %d LSN = %d, want %d", i, recs[i].LSN, lsns[i])
		}
	}
	if recs[3].LSN != lsn || recs[3].Kind != KindDelete {
		t.Fatalf("tail record = LSN %d %s, want LSN %d DELETE", recs[3].LSN, recs[3].Kind, lsn)
	}
	// Truncating from an LSN beyond the tail is a no-op.
	if err := re.TruncateFrom(lsn + 100); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 4 {
		t.Fatal("no-op TruncateFrom changed the log")
	}
}

func TestInjectedFailureDuringLazyBegin(t *testing.T) {
	l := NewMemory()
	if err := l.BeginTx(true); err != nil {
		t.Fatal(err)
	}
	l.FailAfter(0)
	// The injected TxBegin fails, so the data record must not be written
	// either — the frame stays pending and the log stays empty.
	if _, err := l.Append(KindInsert, "t", nil); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("Append = %v, want ErrInjectedFailure", err)
	}
	if l.Len() != 0 {
		t.Fatalf("log holds %d records after injected failure, want 0", l.Len())
	}
	if err := l.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if l.InTx() {
		t.Fatal("frame still armed after abort")
	}
}

// TestRecordSizeMatchesWriter cross-checks recordSize — which TruncateFrom
// trusts to compute file offsets — against the bytes writeRecord actually
// produces, so a format change cannot silently desynchronize them.
func TestRecordSizeMatchesWriter(t *testing.T) {
	for _, rec := range []Record{
		{LSN: 1, Kind: KindInsert},
		{LSN: 2, Kind: KindUpdate, Table: "Gene", Payload: []byte("payload")},
		{LSN: 3, Kind: KindTxBegin, Table: "", Payload: nil},
		{LSN: 4, Kind: KindAnnotation, Table: "a-much-longer-table-name", Payload: make([]byte, 300)},
	} {
		var buf bytes.Buffer
		if err := writeRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
		if got, want := recordSize(rec), int64(buf.Len()); got != want {
			t.Errorf("recordSize(%s table=%q payload=%d) = %d, writeRecord wrote %d",
				rec.Kind, rec.Table, len(rec.Payload), got, want)
		}
	}
}
