package exec

// Tests for what a spilled GROUP BY and DISTINCT write: observation records
// (what one row adds to its group's accumulators) fold back to the same
// groups as the row path and the reference executor, a spilled Q5-shaped
// query writes a small record per spilled row, a corrupt observation record
// is an error, and DISTINCT spills nothing for a bare duplicate.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bdbms/internal/dependency"
	"bdbms/internal/heap"
	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
)

// threePaths runs sql on the reference executor, the row-at-a-time planned
// path and the batched planned path, and asserts identical canonical results.
func threePaths(t *testing.T, s *Session, sql string) string {
	t.Helper()
	run := func(noOpt, noVec bool) (string, error) {
		s.NoOptimize, s.NoVectorize = noOpt, noVec
		defer func() { s.NoOptimize, s.NoVectorize = false, false }()
		res, err := s.Exec(sql)
		if err != nil {
			return "", err
		}
		return canonResult(res), nil
	}
	want, err := run(true, false)
	if err != nil {
		t.Fatalf("%s: reference: %v", sql, err)
	}
	for _, p := range []struct {
		name         string
		noOpt, noVec bool
	}{{"row path", false, true}, {"batched", false, false}} {
		got, err := run(p.noOpt, p.noVec)
		if err != nil {
			t.Fatalf("%s: %s: %v", sql, p.name, err)
		}
		if got != want {
			t.Fatalf("%s: %s differs from the reference\n got: %s\nwant: %s", sql, p.name, got, want)
		}
	}
	return want
}

// loadObsTable fills X with groups of every aggregated type: NULLs, MIN/MAX
// ties (0.0 and -0.0 compare equal and render differently), an int64 SUM that
// overflows into the inexact float, annotations and outdated marks on some
// rows of spilled keys, and a padding column that makes representative rows
// large (so few groups stay resident, and a partition's merge re-partitions
// at a mid-size budget).
func loadObsTable(t *testing.T, s *Session, groups, perGroup int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE X (ID INT NOT NULL PRIMARY KEY, G TEXT, I INT, F FLOAT, T TEXT, S SEQUENCE, TS TIMESTAMP, Pad TEXT)`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Note ON X`)
	ins, err := s.Prepare(`INSERT INTO X VALUES (?, ?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 600)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	id := 0
	for round := 0; round < perGroup; round++ {
		for g := 0; g < groups; g++ {
			id++
			var i, f, tx, sq, ts any = int64(g*7 + round), float64(round%3) * 0.5, fmt.Sprintf("t%d", (g+round)%4), "ACGT"[round%4:], base.Add(time.Duration(g+round%2) * time.Hour)
			switch {
			case (g+round)%5 == 0:
				i, f, tx, sq, ts = nil, nil, nil, nil, nil
			case g%11 == 3:
				i = int64(math.MaxInt64 - 10) // two of these overflow the exact SUM
			case round == 4 && g%3 == 0:
				f = math.Copysign(0, -1) // ties MIN's earlier 0.0: MIN stays 0
			}
			if _, err := ins.Exec(id, fmt.Sprintf("g%03d", g), i, f, tx, sq, ts, pad); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Annotations on a late stretch of rows: observations of keys whose
	// first record is already on disk.
	mustExec(t, s, fmt.Sprintf(`ADD ANNOTATION TO X.Note VALUE 'checked' ON (SELECT I, T FROM X WHERE ID > %d AND ID < %d)`, id-groups, id-groups/2))
	// Outdated marks on F for every row whose I changes.
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "X", Column: "I"}},
		Targets: []dependency.ColumnRef{{Table: "X", Column: "F"}},
		Proc:    dependency.Procedure{Name: "obs rule", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, fmt.Sprintf(`UPDATE X SET I = I + 1 WHERE ID > %d AND ID < %d`, id/2, id/2+groups))
}

func TestSpillObservationRecordsMatchRowPath(t *testing.T) {
	queries := []string{
		`SELECT G, COUNT(*), COUNT(I), SUM(I), AVG(I), MIN(I), MAX(I) FROM X GROUP BY G`,
		`SELECT G, COUNT(F), SUM(F), AVG(F), MIN(F), MAX(F) FROM X GROUP BY G`,
		`SELECT G, COUNT(T), MIN(T), MAX(T), MIN(S), MAX(S), MIN(TS), MAX(TS), COUNT(TS) FROM X GROUP BY G`,
		`SELECT T, COUNT(*), SUM(F) FROM X GROUP BY T, G HAVING COUNT(*) > 1`,
		`SELECT G, COUNT(*), SUM(I) FROM X ANNOTATION(Note) GROUP BY G`,
		`SELECT G, MIN(F), MAX(I) FROM X WHERE ID > 10 GROUP BY G`,
	}
	for _, budget := range []int{1, 8 << 10, 64 << 10, 0} {
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			s := newSession(t)
			s.User = "admin"
			loadObsTable(t, s, 120, 6)
			s.SpillBudget = budget
			spillEvents.Store(0)
			spilledRecords.Store(0)
			for _, q := range queries {
				threePaths(t, s, q)
			}
			if budget > 0 && spillEvents.Load() == 0 {
				t.Fatal("the budget never spilled")
			}
			if budget == 0 && spillEvents.Load() != 0 {
				t.Fatal("the default budget spilled")
			}
		})
	}
	// The exact int64 SUM survives a spill, and overflows the same way.
	s := newSession(t)
	s.SpillBudget = 1 << 10
	mustExec(t, s, `CREATE TABLE W (G TEXT, V INT)`)
	ins, err := s.Prepare(`INSERT INTO W VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		for g := 0; g < 40; g++ {
			v := int64(1 << 53)
			if g == 39 {
				v = math.MaxInt64 / 4
			}
			if _, err := ins.Exec(fmt.Sprintf("w%02d", g), v+int64(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	threePaths(t, s, `SELECT G, SUM(V), AVG(V) FROM W GROUP BY G`)
	res := execAll(t, s, `SELECT G, SUM(V) FROM W GROUP BY G`)
	if got := res.Rows[0].Values[1]; got.Type() != value.Int || got.Int() != 8<<53+28 {
		t.Errorf("exact SUM = %s, want INT %d", got, int64(8<<53+28))
	}
	if got := res.Rows[39].Values[1]; got.Type() != value.Float {
		t.Errorf("overflowing SUM = %s (%s), want the inexact FLOAT", got, got.Type())
	}
}

// TestSpillQ5ShapeStillSpills runs the benchmark's Q5 shape — a 997-group
// GROUP BY over 30 000 rows under a 64 KiB budget — and pins what a spilled
// row writes: the query must still spill, and the records must average at
// most 16 bytes (a bucket record holding both accumulators is over 40).
func TestSpillQ5ShapeStillSpills(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Events (ID INT NOT NULL PRIMARY KEY, Grp TEXT, Score INT)`)
	ins, err := s.Prepare(`INSERT INTO Events VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	const rows, groups = 30000, 997
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(i, fmt.Sprintf("g%03d", (i*7919)%groups), (i*31)%100000); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT Grp, COUNT(*), SUM(Score) FROM Events GROUP BY Grp`
	want := canonResult(mustExec(t, s, q))
	s.SpillBudget = 64 << 10
	for _, noVec := range []bool{false, true} {
		s.NoVectorize = noVec
		spillEvents.Store(0)
		spilledRecords.Store(0)
		spilledBytes.Store(0)
		if got := canonResult(mustExec(t, s, q)); got != want {
			t.Fatalf("NoVectorize=%v: spilled result differs from the in-memory one", noVec)
		}
		if spillEvents.Load() == 0 {
			t.Fatalf("NoVectorize=%v: Q5 no longer spills at 64 KiB", noVec)
		}
		recs, bytes := spilledRecords.Load(), spilledBytes.Load()
		if recs < rows/2 {
			t.Fatalf("NoVectorize=%v: %d spilled records, want most of the %d rows", noVec, recs, rows)
		}
		if bytes > 16*recs {
			t.Errorf("NoVectorize=%v: %d bytes for %d spilled rows (%.1f B each), want at most 16", noVec, bytes, recs, float64(bytes)/float64(recs))
		}
	}
	s.NoVectorize = false
}

// TestSpillCorruptObservationRecord feeds the merge an observation record of
// a key that has no bucket record: an error, not a panic — also when the
// partition is over budget and the record is routed to a sub-partition.
func TestSpillCorruptObservationRecord(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE T (G TEXT, V INT)`)
	for _, budget := range []int{1 << 20, 1} {
		sf := &spillFile{}
		defer sf.Close()
		g, err := newGroupAggIter(s, nil, mustParse(t, `SELECT G, SUM(V) FROM T GROUP BY G`).(*sqlparse.SelectStmt), []binding{{table: "T", column: "G"}, {table: "T", column: "V", colIdx: 1}}, sf)
		if err != nil {
			t.Fatal(err)
		}
		pgr, err := sf.pager()
		if err != nil {
			t.Fatal(err)
		}
		w := heap.NewRunWriter(pgr)
		// A real bucket record first, so a tiny budget is already exceeded
		// when the stray observation arrives.
		b := &groupBucket{vals: value.Row{value.NewText("a"), value.NewInt(1)}, aggs: make([]aggState, 1)}
		rec := append([]byte{recBucket}, appendUvarint(nil, 0)...)
		rec = appendBytes(rec, []byte("a"))
		if err := w.Append(g.encodeBucket(rec, b)); err != nil {
			t.Fatal(err)
		}
		obs := appendObsValue(appendBytes([]byte{recObs}, []byte("b")), value.NewInt(5))
		if err := w.Append(obs); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.grouper.mergePartition(pgr, run, 0); !errors.Is(err, errCorruptSpill) {
			t.Fatalf("budget %d: merge of a stray observation = %v, want errCorruptSpill", budget, err)
		}
		// A truncated observation of a known key is corrupt too.
		w = heap.NewRunWriter(pgr)
		if err := w.Append(g.encodeBucket(rec, b)); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(append(appendBytes([]byte{recObs}, []byte("a")), obsInt)); err != nil {
			t.Fatal(err)
		}
		if run, err = w.Finish(); err != nil {
			t.Fatal(err)
		}
		if _, err := g.grouper.mergePartition(pgr, run, 0); !errors.Is(err, errCorruptSpill) {
			t.Fatalf("budget %d: merge of a truncated observation = %v, want errCorruptSpill", budget, err)
		}
	}
}

// TestDistinctSkipsBareDuplicates: a frozen DISTINCT spills one record per
// spilled distinct row plus one per annotated duplicate of it — nothing for
// a duplicate that adds no annotation.
func TestDistinctSkipsBareDuplicates(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE D (ID INT NOT NULL PRIMARY KEY, Name TEXT)`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Note ON D`)
	ins, err := s.Prepare(`INSERT INTO D VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	// The first row alone exceeds the budget, so every later name spills;
	// the budget leaves room for a flushed marker per name.
	const names, copies = 40, 5
	if _, err := ins.Exec(0, strings.Repeat("x", 3000)); err != nil {
		t.Fatal(err)
	}
	id := 1
	for c := 0; c < copies; c++ {
		for n := 0; n < names; n++ {
			if _, err := ins.Exec(id, fmt.Sprintf("n%02d", n)); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	// Annotate half the copies of round 3: names/2 annotated duplicates.
	lo := 1 + 3*names
	mustExec(t, s, fmt.Sprintf(`ADD ANNOTATION TO D.Note VALUE 'dup' ON (SELECT Name FROM D WHERE ID >= %d AND ID < %d)`, lo, lo+names/2))
	s.SpillBudget = 2048 // flushedCap 64 >= names
	for _, q := range []string{`SELECT DISTINCT Name FROM D ANNOTATION(Note)`, `SELECT DISTINCT Name FROM D`} {
		spilledRecords.Store(0)
		res := naiveVsPlanned(t, s, q)
		if len(res.Rows) != names+1 {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), names+1)
		}
		want := int64(names)
		if strings.Contains(q, "ANNOTATION") {
			want += names / 2
		}
		if got := spilledRecords.Load(); got != want {
			t.Errorf("%s: %d spilled records, want %d (one per spilled row plus one per annotated duplicate)", q, got, want)
		}
	}
}
