package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
)

// sameRecords compares what the two kinds of log must agree on: everything
// but the append timestamp.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: file log has %d records, memory log %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.LSN != w.LSN || g.Kind != w.Kind || g.Table != w.Table || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("%s: record %d = {%d %s %q %d bytes}, memory log has {%d %s %q %d bytes}",
				what, i, g.LSN, g.Kind, g.Table, len(g.Payload), w.LSN, w.Kind, w.Table, len(w.Payload))
		}
	}
}

// sameLogs compares every read a log offers between a file-backed log and
// the memory log fed the same operations.
func sameLogs(t *testing.T, step int, file, mem *Log) {
	t.Helper()
	want := mem.Records()
	sameRecords(t, "Records", file.Records(), want)
	var last uint64
	if len(want) > 0 {
		last = want[len(want)-1].LSN
	}
	for _, k := range []uint64{0, 1, last / 2, last - min(last, 3), last, last + 10} {
		sameRecords(t, "Since", file.Since(k), mem.Since(k))
	}
	stop := step % (len(want) + 1)
	var prefix []Record
	file.Iterate(func(r Record) bool {
		if len(prefix) == stop {
			return false
		}
		prefix = append(prefix, r)
		return true
	})
	sameRecords(t, "Iterate prefix", prefix, want[:stop])
	n := mem.FrameRecords()
	for _, mark := range []int{0, 1, n / 2, n} {
		ftail, ferr := file.FrameTail(mark)
		mtail, merr := mem.FrameTail(mark)
		if ferr != nil || merr != nil {
			t.Fatalf("FrameTail(%d): file log %v, memory log %v", mark, ferr, merr)
		}
		sameRecords(t, "FrameTail", ftail, mtail)
	}
}

// TestFileLogMatchesMemoryLog feeds the same 10 000 appends — every kind,
// lazy and eager frames, commits and aborts, a TruncateFrom and a Truncate —
// to a memory log, which keeps its records, and to a file-backed log, which
// keeps none: every read must agree, live and after a reopen.
func TestFileLogMatchesMemoryLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	file, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { file.Close() }()
	mem := NewMemory()
	both := func(what string, op func(l *Log) error) {
		t.Helper()
		if ferr, merr := op(file), op(mem); ferr != nil || merr != nil {
			t.Fatalf("%s: file log %v, memory log %v", what, ferr, merr)
		}
	}

	rng := rand.New(rand.NewSource(20))
	tables := []string{"", "Gene", "Protein", "a-much-longer-annotation-table-name"}
	dataKinds := []Kind{KindInsert, KindUpdate, KindDelete, KindApproval, KindCheckpoint, KindAnnotation,
		KindCreateTable, KindDropTable, KindCreateIndex, KindCreateAnnTable, KindDropAnnTable,
		KindAnnArchive, KindDepMark, KindProvAgent}
	frameKinds := []Kind{KindTxSavepoint, KindTxRollbackTo, KindTxStmtAbort}
	const appends = 10000
	inTx := false
	for step := 0; mem.NextLSN() <= appends; step++ {
		var payload []byte
		switch n := rng.Intn(500); {
		case n == 0:
			payload = make([]byte, 70<<10+rng.Intn(60<<10)) // larger than the read buffer
		case n < 50:
			// no payload
		default:
			payload = make([]byte, 1+rng.Intn(300))
		}
		rng.Read(payload)
		table := tables[rng.Intn(len(tables))]
		switch n := rng.Intn(20); {
		case !inTx && n < 3:
			lazy := n == 0
			both("BeginTx", func(l *Log) error { return l.BeginTx(lazy) })
			inTx = true
		case inTx && n < 3:
			both("CommitTx", func(l *Log) error { return l.CommitTx() })
			inTx = false
		case inTx && n == 3:
			both("AbortTx", func(l *Log) error { return l.AbortTx() })
			inTx = false
		case inTx && n < 6:
			kind := frameKinds[rng.Intn(len(frameKinds))]
			both("Append", func(l *Log) error { _, err := l.Append(kind, "", payload); return err })
		default:
			kind := dataKinds[rng.Intn(len(dataKinds))]
			both("Append", func(l *Log) error { _, err := l.Append(kind, table, payload); return err })
		}
		switch {
		case step == 4000:
			from := mem.NextLSN() - 37
			both("TruncateFrom", func(l *Log) error { return l.TruncateFrom(from) })
			sameLogs(t, step, file, mem)
		case step == 7000:
			both("Truncate", func(l *Log) error { return l.Truncate() })
			inTx = false
			sameLogs(t, step, file, mem)
		case step%500 == 0:
			sameLogs(t, step, file, mem)
		}
		if file.Len() != mem.Len() || file.NextLSN() != mem.NextLSN() || file.FrameRecords() != mem.FrameRecords() {
			t.Fatalf("step %d: file log Len %d NextLSN %d FrameRecords %d, memory log %d %d %d", step,
				file.Len(), file.NextLSN(), file.FrameRecords(), mem.Len(), mem.NextLSN(), mem.FrameRecords())
		}
	}
	sameLogs(t, appends, file, mem)

	before := file.Records()
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if file, err = Open(path); err != nil {
		t.Fatal(err)
	}
	if file.Len() != mem.Len() || file.NextLSN() != mem.NextLSN() {
		t.Fatalf("reopened: Len %d NextLSN %d, memory log %d %d", file.Len(), file.NextLSN(), mem.Len(), mem.NextLSN())
	}
	sameLogs(t, appends, file, mem)
	for i, rec := range file.Records() {
		if !rec.Time.Equal(before[i].Time) {
			t.Fatalf("record %d: time %v before the reopen, %v after", i, before[i].Time, rec.Time)
		}
	}
}

// TestFileLogRetainsNothing pins the memory bound: a file-backed log's heap
// footprint does not grow with the records it has written.
func TestFileLogRetainsNothing(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 48)
	if _, err := l.Append(KindInsert, "Gene", payload); err != nil { // sizes the encode buffer
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const appends = 200000
	for i := 0; i < appends; i++ {
		if _, err := l.Append(KindInsert, "Gene", payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("heap grew by %d bytes over %d appends, want < 1 MiB", grown, appends)
	}
	if l.Len() != appends+1 {
		t.Errorf("Len = %d, want %d", l.Len(), appends+1)
	}
}

// TestClosedLogRefusesWrites: after Close a file-backed log has no file to
// write to, so it must refuse — not fall back to acknowledging records into
// memory that a reopen will never see.
func TestClosedLogRefusesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindInsert, "T", []byte("acknowledged")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	for name, op := range map[string]func() error{
		"Append":         func() error { _, err := l.Append(KindInsert, "T", []byte("lost")); return err },
		"BeginTx(lazy)":  func() error { return l.BeginTx(true) },
		"BeginTx(eager)": func() error { return l.BeginTx(false) },
		"CommitTx":       l.CommitTx,
		"Sync":           l.Sync,
	} {
		if err := op(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed log = %v, want ErrClosed", name, err)
		}
	}
	if l.InTx() {
		t.Error("a refused BeginTx left a frame armed")
	}
	if l.Len() != 1 {
		t.Errorf("Len after refused appends = %d, want 1", l.Len())
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if recs := re.Records(); len(recs) != 1 || string(recs[0].Payload) != "acknowledged" {
		t.Errorf("reopened log = %v, want the one acknowledged record", recs)
	}
}
