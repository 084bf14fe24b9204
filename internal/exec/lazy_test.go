package exec

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bdbms/internal/annotation"
	"bdbms/internal/dependency"
	"bdbms/internal/storage"
)

// renderHeld renders a row and its annotation cells for comparison.
func renderHeld(vals ARow, anns [][]*annotation.Annotation) string {
	var b strings.Builder
	b.WriteString(vals.Values.String())
	for c, cell := range anns {
		for _, a := range cell {
			fmt.Fprintf(&b, " %d:%d:%s", c, a.ID, a.Body)
		}
	}
	return b.String()
}

// TestLazyRowsOutliveLaterPulls: a batch scan's rows stay positions in a
// batch until the caller reads them, and the batch's vectors are reused by
// the scan's next pull. Row() and Annotations() of row k, read while k is
// current, must still hold row k's values and annotations after every later
// Next, over full scans and multi-batch gathers, while a concurrent writer
// makes every round's scan patch the columnar mirror. Each cursor is
// compared with a NoVectorize cursor opened on the same state. Run it with
// -race.
func TestLazyRowsOutliveLaterPulls(t *testing.T) {
	s := newSession(t)
	s.User = "admin"
	mustExec(t, s, `CREATE TABLE L (ID INT NOT NULL PRIMARY KEY, A INT, B TEXT, C FLOAT, D TEXT)`)
	r := rand.New(rand.NewSource(3))
	var ins strings.Builder
	for i := 1; i <= 2600; i++ {
		b := fmt.Sprintf("'b%d'", r.Intn(50)) // few distinct: dictionary-coded chunks
		if i%9 == 0 {
			b = "NULL"
		}
		fmt.Fprintf(&ins, "INSERT INTO L VALUES (%d, %d, %s, %d.5, 'd%d');\n", i, r.Intn(1000), b, i%97, i)
	}
	ins.WriteString("CREATE ANNOTATION TABLE Notes ON L;\n")
	for k := 0; k < 30; k++ {
		lo := 1 + r.Intn(2500)
		fmt.Fprintf(&ins, "ADD ANNOTATION TO L.Notes VALUE '<Annotation>n%d</Annotation>' ON (SELECT %s FROM L WHERE ID >= %d AND ID <= %d);\n",
			k, []string{"B", "D", "*"}[k%3], lo, lo+r.Intn(200))
	}
	if _, err := s.ExecAll(ins.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "L", Column: "C"}},
		Targets: []dependency.ColumnRef{{Table: "L", Column: "D"}},
		Proc:    dependency.Procedure{Name: "lazy rows", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `UPDATE L SET C = 0.25 WHERE ID >= 1000 AND ID <= 1100`)

	// The writer only rewrites values of columns no dependency rule reads, so
	// annotations and outdated marks stay put and both cursors of a round
	// decorate alike.
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Session{Eng: s.Eng, Ann: s.Ann, Prov: s.Prov, Dep: s.Dep, Auth: s.Auth, User: "admin"}
		wr := rand.New(rand.NewSource(4))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			_, err := w.Exec(fmt.Sprintf(`UPDATE L SET A = %d, B = 'w%d' WHERE ID = %d`, wr.Intn(1000), wr.Intn(9), 1+wr.Intn(2600)))
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	queries := []string{
		`SELECT * FROM L ANNOTATION(*)`,
		`SELECT ID, B, D FROM L ANNOTATION(*) WHERE ID >= 100 AND ID <= 2500`,
		`SELECT D, ID FROM L ANNOTATION(Notes) WHERE ID >= 700 AND ID <= 2500 AND A < 700`,
	}
	row := &Session{Eng: s.Eng, Ann: s.Ann, Prov: s.Prov, Dep: s.Dep, Auth: s.Auth, User: "admin", NoVectorize: true}
	before := batchScans.Load()
	for round := 0; round < 4; round++ {
		for qi, q := range queries {
			// Both cursors open on one state: a full scan patches the mirror
			// first, so the range reads gather from a current generation.
			mu.Lock()
			mustExec(t, s, `SELECT COUNT(*) FROM L`)
			lazy, err := s.Query(context.Background(), q)
			if err != nil {
				mu.Unlock()
				t.Fatal(err)
			}
			eager, err := row.Query(context.Background(), q)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			var held []ARow
			var heldAnns [][][]*annotation.Annotation
			var seen []string
			for k := 0; lazy.Next(); k++ {
				// Vary what is read, and in which order.
				var cur ARow
				var anns [][]*annotation.Annotation
				switch k % 3 {
				case 0:
					cur, anns = lazy.Row(), lazy.Annotations()
				case 1:
					anns = lazy.Annotations()
					cur = lazy.Row()
				default:
					anns = lazy.Annotations()
					dest := make([]any, len(lazy.Columns()))
					for i := range dest {
						dest[i] = new(any)
					}
					if err := lazy.Scan(dest...); err != nil {
						t.Fatal(err)
					}
					cur = lazy.Row()
					for i, d := range dest {
						if got, want := fmt.Sprint(*d.(*any)), fmt.Sprint(nativeValue(cur.Values[i])); got != want {
							t.Fatalf("%s row %d column %d: Scan %s, Row %s", q, k, i, got, want)
						}
					}
				}
				held, heldAnns = append(held, cur), append(heldAnns, anns)
				seen = append(seen, renderHeld(cur, anns))
			}
			if err := lazy.Err(); err != nil {
				t.Fatal(err)
			}
			var want []string
			for eager.Next() {
				want = append(want, renderHeld(eager.Row(), eager.Annotations()))
			}
			if err := eager.Err(); err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(want) || len(seen) < 1000 {
				t.Fatalf("round %d query %d: %d rows, NoVectorize %d", round, qi, len(seen), len(want))
			}
			for k := range held {
				if got := renderHeld(held[k], heldAnns[k]); got != seen[k] {
					t.Fatalf("round %d %s: row %d changed after later pulls:\n now: %.200s\nread: %.200s", round, q, k, got, seen[k])
				}
				if seen[k] != want[k] {
					t.Fatalf("round %d %s: row %d differs from NoVectorize:\n got: %.200s\nwant: %.200s", round, q, k, seen[k], want[k])
				}
			}
		}
	}
	if batchScans.Load()-before < int64(2*4*len(queries)) {
		t.Errorf("%d batch scans for %d cursors and their mirror patches: some cursor read the row path", batchScans.Load()-before, 4*len(queries))
	}
}

// TestBatchScanLeavesMirrorVectorsIntact: a chunk's raw validity vector
// belongs to the mirror generation, which every scan shares. A scan that
// loaded it and then decoded the next chunk's run-length validity must not
// decode into it: the first chunk's NULLs would read as empty text in every
// later scan. The first chunk's NULLs alternate (kept raw), the second's are
// one run (kept run-length).
func TestBatchScanLeavesMirrorVectorsIntact(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE V (ID INT NOT NULL PRIMARY KEY, B TEXT)`)
	var ins strings.Builder
	for i := 1; i <= 2*storage.ColChunkRows; i++ {
		b := fmt.Sprintf("'b%d'", i%5)
		if (i <= storage.ColChunkRows && i%9 == 0) || (i >= 1100 && i < 1110) {
			b = "NULL"
		}
		fmt.Fprintf(&ins, "INSERT INTO V VALUES (%d, %s);\n", i, b)
	}
	if _, err := s.ExecAll(ins.String()); err != nil {
		t.Fatal(err)
	}
	row := &Session{Eng: s.Eng, Ann: s.Ann, Prov: s.Prov, Dep: s.Dep, Auth: s.Auth, User: s.User, NoVectorize: true}
	collect := func(sess *Session) []string {
		rows, err := sess.Query(context.Background(), `SELECT ID, B FROM V`)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for rows.Next() {
			out = append(out, rows.Row().Values.String())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := collect(row)
	before := batchScans.Load()
	for round := 0; round < 3; round++ {
		got := collect(s)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d rows, NoVectorize %d", round, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("round %d: row %d is %s, NoVectorize %s", round, k, got[k], want[k])
			}
		}
	}
	if batchScans.Load()-before < 3 {
		t.Fatal("the scans did not run vectorized")
	}
}
