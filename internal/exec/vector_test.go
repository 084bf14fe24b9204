package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bdbms/internal/dependency"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// execAll runs one query on all three executors (naive reference, planned
// row-at-a-time, planned vectorized) and asserts they agree, returning the
// vectorized result.
func execAll(t *testing.T, s *Session, query string) *Result {
	t.Helper()
	s.NoOptimize = true
	naive, err := s.Exec(query)
	s.NoOptimize = false
	if err != nil {
		t.Fatalf("naive %q: %v", query, err)
	}
	s.NoVectorize = true
	rowPath, err := s.Exec(query)
	s.NoVectorize = false
	if err != nil {
		t.Fatalf("row path %q: %v", query, err)
	}
	vec, err := s.Exec(query)
	if err != nil {
		t.Fatalf("vectorized %q: %v", query, err)
	}
	want := canonResult(naive)
	if got := canonResult(rowPath); got != want {
		t.Fatalf("row path != naive for %q\n got: %s\nwant: %s", query, got, want)
	}
	if got := canonResult(vec); got != want {
		t.Fatalf("vectorized != naive for %q\n got: %s\nwant: %s", query, got, want)
	}
	return vec
}

// TestSumExactBeyondFloat53 is the regression test for integer SUM/AVG
// exactness: summing int64 values whose total exceeds 2^53 must produce the
// exact integer on every executor. Before the shared aggState, all three
// accumulated in float64 and silently rounded.
func TestSumExactBeyondFloat53(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Big (ID INT NOT NULL PRIMARY KEY, V INT)`)
	// 2^53 = 9007199254740992; float64 cannot represent 2^53 + 1. Three rows
	// summing to 2^53 + 3 prove exactness: a float64 accumulator lands on an
	// even neighbour instead.
	const big = int64(1) << 53
	vals := []int64{big - 2, 3, 2}
	const want = int64(1)<<53 + 3
	for i, v := range vals {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Big VALUES (%d, %d)`, i+1, v))
	}
	res := execAll(t, s, `SELECT SUM(V), COUNT(*) FROM Big`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	got := res.Rows[0].Values[0]
	if got.Type() != value.Int {
		t.Fatalf("SUM type = %v, want exact INT (value %s)", got.Type(), got)
	}
	if got.Int() != want {
		t.Errorf("SUM = %d, want %d (off by %d)", got.Int(), want, got.Int()-want)
	}

	// A FLOAT joining the group demotes the sum to float64 — the documented,
	// pre-existing behaviour — without disturbing other groups.
	mustExec(t, s, `CREATE TABLE Mix (ID INT NOT NULL PRIMARY KEY, G TEXT, V FLOAT)`)
	mustExec(t, s, `INSERT INTO Mix VALUES (1, 'a', 1.5)`)
	mustExec(t, s, `INSERT INTO Mix VALUES (2, 'a', 2.0)`)
	res = execAll(t, s, `SELECT G, SUM(V) FROM Mix GROUP BY G`)
	if got := res.Rows[0].Values[1]; got.Type() != value.Float || got.Float() != 3.5 {
		t.Errorf("float SUM = %s, want 3.5", got)
	}
}

// TestSkewedGroupBySpillTinyBudget is the regression test for the unbounded
// partition re-merge: under a one-byte budget every row triggers a spill
// flush, and with one dominant key nearly every flushed record lands in the
// same partition. The old merge decoded that whole partition into memory;
// the recursive merge folds the dominant key incrementally and re-partitions
// the long tail, so the query must now complete — with exact aggregates and
// first-seen group order.
func TestSkewedGroupBySpillTinyBudget(t *testing.T) {
	s := newSession(t)
	s.SpillBudget = 1
	mustExec(t, s, `CREATE TABLE Skew (ID INT NOT NULL PRIMARY KEY, G TEXT, V INT)`)
	// 400 rows of one hot key interleaved with 100 distinct cold keys.
	const hot, cold = 400, 100
	id := 0
	insert := func(g string, v int) {
		id++
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Skew VALUES (%d, '%s', %d)`, id, g, v))
	}
	wantHotSum := 0
	for i := 0; i < hot; i++ {
		insert("hot", i)
		wantHotSum += i
		if i < cold {
			insert(fmt.Sprintf("cold%03d", i), 1000+i)
		}
	}
	spillEvents.Store(0)
	res := execAll(t, s, `SELECT G, COUNT(*), SUM(V) FROM Skew GROUP BY G`)
	if spillEvents.Load() == 0 {
		t.Fatal("budget 1 never spilled; the test is not exercising the merge")
	}
	if len(res.Rows) != 1+cold {
		t.Fatalf("got %d groups, want %d", len(res.Rows), 1+cold)
	}
	// First-seen order puts the hot group first.
	first := res.Rows[0]
	if first.Values[0].Text() != "hot" {
		t.Errorf("first group = %s, want hot (first-seen order)", first.Values[0])
	}
	if first.Values[1].Int() != hot || first.Values[2].Int() != int64(wantHotSum) {
		t.Errorf("hot group = (%s, %s), want (%d, %d)", first.Values[1], first.Values[2], hot, wantHotSum)
	}
}

// TestVectorizedFallsBackOnStaleMirror pins the MVCC handshake: a snapshot
// opened before a write must not consume the mirror generation built after
// it, and a write between mirror build and query must make the cached
// generation stale — both cases fall back to the row scan and stay correct.
func TestVectorizedFallsBackOnStaleMirror(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Ev (ID INT NOT NULL PRIMARY KEY, G TEXT, V INT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Ev VALUES (%d, 'g%d', %d)`, i, i%3, i))
	}
	// Warm the mirror.
	execAll(t, s, `SELECT G, COUNT(*) FROM Ev GROUP BY G`)

	// Open a cursor (pinning a snapshot), then delete a row before draining.
	rows, err := s.Query(context.Background(), `SELECT ID FROM Ev`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	mustExec(t, s, `DELETE FROM Ev WHERE ID = 10`)
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("snapshot cursor saw %d rows, want 10 (pre-delete state)", n)
	}
	// After the write, a fresh query agrees across executors on the new state.
	res := execAll(t, s, `SELECT COUNT(*) FROM Ev`)
	if got := res.Rows[0].Values[0].Int(); got != 9 {
		t.Errorf("post-delete COUNT(*) = %d, want 9", got)
	}
}

// TestVectorizedAggregateOverEmptiedChunk deletes every row of a middle
// chunk and runs a kernel-filtered aggregate over what is left: the patched
// mirror must have dropped the chunk, and the batch scan must pass over a
// zero-row chunk if it ever meets one (its selection buffers have no first
// element to address).
func TestVectorizedAggregateOverEmptiedChunk(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Ev (ID INT NOT NULL PRIMARY KEY, G TEXT, V INT)`)
	const n = 3*storage.ColChunkRows + 10
	for i := 1; i <= n; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Ev VALUES (%d, 'g%d', %d)`, i, i%3, i%7))
	}
	const query = `SELECT G, COUNT(*), SUM(V) FROM Ev WHERE V >= 1 GROUP BY G`
	execAll(t, s, query) // warm the mirror
	mustExec(t, s, fmt.Sprintf(`DELETE FROM Ev WHERE ID > %d AND ID <= %d`, storage.ColChunkRows, 2*storage.ColChunkRows))
	tbl, err := s.Eng.Table("Ev")
	if err != nil {
		t.Fatal(err)
	}
	before, scans := tbl.ColumnarStats(), batchScans.Load()
	res := execAll(t, s, query)
	if batchScans.Load() == scans {
		t.Error("the aggregate after the delete did not run vectorized")
	}
	after := tbl.ColumnarStats()
	if after.Patches != before.Patches+1 || after.FullBuilds != before.FullBuilds {
		t.Errorf("mirror cost %+v -> %+v, want one patch", before, after)
	}
	var rows, want int64
	for _, r := range res.Rows {
		rows += r.Values[1].Int()
	}
	for i := 1; i <= n; i++ {
		if (i <= storage.ColChunkRows || i > 2*storage.ColChunkRows) && i%7 >= 1 {
			want++
		}
	}
	if rows != want {
		t.Errorf("aggregate counted %d rows with V >= 1, want %d", rows, want)
	}
	cd := tbl.ColumnarData()
	if len(cd.Chunks) != 3 {
		t.Fatalf("mirror has %d chunks after emptying one of four, want 3", len(cd.Chunks))
	}

	// The scan itself, handed zero-row chunks: first (no selection buffer
	// exists yet) and between two real ones.
	empty := &storage.ColChunk{Cols: make([]storage.ColVec, cd.NumCols)}
	hollow := &storage.ColData{WriteSeq: cd.WriteSeq, NumCols: cd.NumCols,
		Chunks: []*storage.ColChunk{empty, cd.Chunks[0], empty, cd.Chunks[1]}}
	it := &batchScanIter{ctx: context.Background(), cd: hollow, kernels: []kernelPred{{slot: 2, eq: true, gt: true, f: 1}}}
	got := 0
	for {
		b, ok, err := it.nextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got += len(b.sel)
	}
	kept := 0
	for _, ch := range hollow.Chunks {
		for _, v := range ch.Cols[2].Ints[:ch.Rows()] {
			if v >= 1 {
				kept++
			}
		}
	}
	if got != kept {
		t.Errorf("scan over a hollow mirror selected %d rows, want %d", got, kept)
	}
}

// TestBatchedAggregateCarriesOutdatedMarks pins the marks-on-the-batch-path
// rule: outdated cells on the scanned table no longer push an aggregate off
// the batch path, and the groups carry exactly the marks, in the order, the
// row path attaches — resident, and spilled with a one-byte budget.
func TestBatchedAggregateCarriesOutdatedMarks(t *testing.T) {
	for _, budget := range []int{0, 1} {
		s := newSession(t)
		s.SpillBudget = budget
		mustExec(t, s, `CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, Family TEXT, Seq TEXT, Score INT)`)
		for i := 1; i <= 60; i++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO Gene VALUES (%d, 'f%d', 'ACGT', %d)`, i, i%4, i))
		}
		if _, err := s.Dep.AddRule(dependency.Rule{
			Sources: []dependency.ColumnRef{{Table: "Gene", Column: "Seq"}},
			Targets: []dependency.ColumnRef{{Table: "Gene", Column: "Family"}},
			Proc:    dependency.Procedure{Name: "family assignment", Executable: false},
		}); err != nil {
			t.Fatal(err)
		}
		const query = `SELECT Family, COUNT(*), SUM(Score) FROM Gene GROUP BY Family`
		execAll(t, s, query)
		// Marks on a group's first member, on later members, and on none (f3).
		mustExec(t, s, `UPDATE Gene SET Seq = 'TTTT' WHERE GID = 1 OR GID = 6 OR GID = 9 OR GID = 10 OR GID = 44`)
		aggs := batchMarkedAggs.Load()
		vec := execAll(t, s, query)
		if batchMarkedAggs.Load() == aggs {
			t.Errorf("budget %d: the aggregate over a marked table left the batch path", budget)
		}
		s.NoVectorize = true
		row := mustExec(t, s, query)
		s.NoVectorize = false
		if got, want := canon(vec, false), canon(row, false); got != want {
			t.Errorf("budget %d: batched marks differ from the row path's\n got: %s\nwant: %s", budget, got, want)
		}
		marks := 0
		for _, r := range vec.Rows {
			marks += len(r.AnnotationsFlat())
		}
		if marks != 5 {
			t.Errorf("budget %d: groups carry %d outdated marks, want 5", budget, marks)
		}
	}
}

// TestHashKeyParts pins the key every hash operator shares (appendHashKey):
// NULL differs from the text 'NULL', a NUL byte cannot move the boundary
// between two parts, FLOAT 0.0 and -0.0 share a key, and a batch vector keys
// a row like the boxed value the row path reads.
func TestHashKeyParts(t *testing.T) {
	key := func(vs ...value.Value) string { return string(appendHashKey(nil, vs...)) }
	if key(value.NewNull()) == key(value.NewText("NULL")) {
		t.Error("NULL and 'NULL' share a key")
	}
	// A NUL and a TEXT tag inside a value look like EncodeKey's terminator
	// and the next value's tag: only the length prefix keeps them apart.
	split := "\x00" + string(byte(value.Text))
	if key(value.NewText("x"+split+"y"), value.NewText("z")) == key(value.NewText("x"), value.NewText("y"+split+"z")) {
		t.Errorf(`(%q, "z") and ("x", %q) share a key`, "x"+split+"y", "y"+split+"z")
	}
	if key(value.NewFloat(0)) != key(value.NewFloat(math.Copysign(0, -1))) {
		t.Error("0.0 and -0.0 do not share a key")
	}
	vecs := []bvec{
		{kind: storage.ColInt, typ: value.Int, ints: []int64{-7, 0}, valid: []byte{1, 0}},
		{kind: storage.ColFloat, typ: value.Float, flts: []float64{2.5, 1e300}},
		{kind: storage.ColText, typ: value.Sequence, strs: []string{"ACGT", "NULL"}},
		{kind: storage.ColText, typ: value.Text, dict: []string{"", "a\x00b"}, codes: []byte{1, 0}},
	}
	boxed := []value.Row{
		{value.NewInt(-7), value.NewFloat(2.5), value.NewSequence("ACGT"), value.NewText("a\x00b")},
		{value.NewNull(), value.NewFloat(1e300), value.NewSequence("NULL"), value.NewText("")},
	}
	for i := int32(0); i < 2; i++ {
		var got []byte
		for c := range vecs {
			got = vecs[c].appendHashKey(got, i)
		}
		if want := key(boxed[i]...); string(got) != want {
			t.Errorf("row %d: vector key %q, boxed key %q", i, got, want)
		}
	}
}
