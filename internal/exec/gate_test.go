package exec

// The batch gates — a hash join's probe side and a Top-N heap deciding on
// column vectors before the batch adapter boxes a row — must be invisible:
// every query here returns the same rows, order and annotations with the
// gate (vectorized), without it (NoVectorize) and on the naive reference.

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"bdbms/internal/dependency"
	"bdbms/internal/value"
)

// loadGateTables creates G (two columnar chunks: a dictionary-coded and a
// plain TEXT column, a SEQUENCE, NULL keys, tied INT keys, -0.0 among the
// FLOATs), a small D to join against and a tiny H. Rows 500-504
// of G carry outdated marks on N and cells of G carry annotations.
func loadGateTables(t *testing.T, s *Session) {
	const rows = 1100
	t.Helper()
	mustExec(t, s, `CREATE TABLE G (ID INT NOT NULL PRIMARY KEY, K INT, N INT, F FLOAT, T TEXT, P TEXT, Q SEQUENCE)`)
	mustExec(t, s, `CREATE TABLE D (DK INT, DF FLOAT, DT TEXT, DS SEQUENCE)`)
	mustExec(t, s, `CREATE TABLE H (HK INT, HV TEXT)`)
	texts := []string{"alpha", "beta", "gamma", "delta", "omega"}
	seqs := []string{"ACGT", "TTGA", "GGCC", "alpha", "beta"}
	var vals []string
	flush := func(table string) {
		if len(vals) > 0 {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(vals, ", ")))
			vals = vals[:0]
		}
	}
	for i := 1; i <= rows; i++ {
		n, txt := fmt.Sprint(i%13), "'"+texts[i%5]+"'"
		if i%4 == 0 {
			n = "NULL"
		}
		if i%11 == 0 {
			txt = "NULL"
		}
		f := fmt.Sprintf("%g", float64(i%7)/2)
		if i%7 == 0 && i%2 == 0 {
			f = "-0.0"
		}
		vals = append(vals, fmt.Sprintf("(%d, %d, %s, %s, %s, 'p%05d', '%s')", i, i%10, n, f, txt, (i*7919)%rows, seqs[i%5]))
		if len(vals) == 100 {
			flush("G")
		}
	}
	flush("G")
	for i := 0; i < 30; i++ {
		dk, dt := fmt.Sprint(i%12), "'"+texts[i%5]+"'"
		if i%9 == 0 {
			dk = "NULL"
		}
		if i%8 == 0 {
			dt = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%s, %g, %s, '%s')", dk, float64(i%6), dt, seqs[(i+2)%5]))
	}
	flush("D")
	mustExec(t, s, `INSERT INTO H VALUES (3, 'z'), (5, 'y'), (500, 'z')`)

	mustExec(t, s, `CREATE ANNOTATION TABLE Notes ON G`)
	mustExec(t, s, `ADD ANNOTATION TO G.Notes VALUE 'low key' ON (SELECT K FROM G WHERE K < 3)`)
	mustExec(t, s, `ADD ANNOTATION TO G.Notes VALUE 'whole row' ON (SELECT * FROM G WHERE ID >= 495 AND ID < 502)`)
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "G", Column: "K"}},
		Targets: []dependency.ColumnRef{{Table: "G", Column: "N"}},
		Proc:    dependency.Procedure{Name: "gate rule", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `UPDATE G SET K = 9 WHERE ID >= 500 AND ID < 505`)
}

// TestBatchGatesMatchRowPath runs each query on the naive reference, the
// planned row path (NoVectorize) and the vectorized path, and checks whether
// the vectorized run dropped rows at a gate.
func TestBatchGatesMatchRowPath(t *testing.T) {
	s := newSession(t)
	s.User = "admin"
	loadGateTables(t, s)
	cases := []struct {
		name, query string
		gated       bool
		restored    bool // the plan is reordered (EXPLAIN shows Restore)
	}{
		{"topn tied keys", `SELECT * FROM G ORDER BY K DESC LIMIT 5`, true, false},
		{"topn null keys", `SELECT ID, N FROM G ORDER BY N LIMIT 7`, true, false},
		{"topn null keys desc", `SELECT ID, N FROM G ORDER BY N DESC LIMIT 7`, true, false},
		{"topn two keys asc desc", `SELECT ID, K, F FROM G ORDER BY K, F DESC LIMIT 9`, true, false},
		{"topn limit 0", `SELECT * FROM G ORDER BY K LIMIT 0`, false, false},
		{"topn key not projected", `SELECT ID, T FROM G ORDER BY F DESC LIMIT 4`, true, false},
		{"topn dictionary text key", `SELECT ID, T FROM G ORDER BY T DESC, ID LIMIT 6`, true, false},
		{"topn plain text key", `SELECT P, ID FROM G ORDER BY P DESC LIMIT 3`, true, false},
		{"topn sequence key", `SELECT ID, Q FROM G ORDER BY Q, ID DESC LIMIT 3`, true, false},
		{"topn after kernel filter", `SELECT * FROM G WHERE K > 2 AND T <> 'beta' ORDER BY F DESC, ID LIMIT 5`, true, false},
		{"topn expression item", `SELECT ID, K + 1 FROM G ORDER BY K LIMIT 5`, false, false},
		{"topn promote", `SELECT ID PROMOTE (N) FROM G ORDER BY K DESC LIMIT 5`, false, false},
		{"topn annotation clause", `SELECT * FROM G ANNOTATION(Notes) ORDER BY K DESC LIMIT 5`, false, false},
		{"topn awhere", `SELECT * FROM G ANNOTATION(Notes) AWHERE ANN.VALUE LIKE '%row%' ORDER BY K DESC LIMIT 5`, false, false},
		{"join int float", `SELECT G.ID, G.K, D.DF FROM G, D WHERE G.K = D.DF`, true, false},
		{"join text sequence", `SELECT G.ID, D.DS FROM G, D WHERE G.T = D.DS`, true, false},
		{"join sequence text", `SELECT G.ID, D.DT FROM G, D WHERE G.Q = D.DT`, true, false},
		{"join null keys", `SELECT G.ID, G.N, D.DK FROM G, D WHERE G.N = D.DK`, true, false},
		{"join composite key", `SELECT G.ID, D.DK, D.DT FROM G, D WHERE G.K = D.DK AND G.T = D.DT`, true, false},
		{"join float minus zero", `SELECT G.ID, G.F, D.DK FROM G, D WHERE G.F = D.DK`, true, false},
		{"join annotated probe", `SELECT * FROM G ANNOTATION(Notes), D WHERE G.K = D.DK AND D.DT = 'beta'`, true, false},
		{"join empty build", `SELECT G.ID FROM G, D WHERE G.K = D.DK AND D.DT = 'nope'`, false, false},
		{"join reordered", `SELECT H.HV, G.ID, D.DT FROM H, G, D WHERE H.HK = G.K AND G.T = D.DT AND H.HV = 'z'`, true, true},
		{"join then topn", `SELECT G.ID, D.DK FROM G, D WHERE G.N = D.DK ORDER BY G.ID DESC LIMIT 4`, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.restored != strings.Contains(explainText(t, s, "EXPLAIN "+tc.query), "Restore(") {
				t.Fatalf("plan of %q: reordered = %v, want %v\n%s", tc.query, !tc.restored, tc.restored, explainText(t, s, "EXPLAIN "+tc.query))
			}
			before := batchGatedRows.Load()
			vec := execAll(t, s, tc.query)
			if gated := batchGatedRows.Load() != before; gated != tc.gated {
				t.Errorf("%q: gated = %v, want %v", tc.query, gated, tc.gated)
			}
			s.NoVectorize = true
			rowPath := mustExec(t, s, tc.query)
			s.NoVectorize = false
			if got, want := canon(vec, false), canon(rowPath, false); got != want {
				t.Errorf("%q: gated and row path differ in rows, order or annotation order\n got: %s\nwant: %s", tc.query, got, want)
			}
			if len(vec.Rows) == 0 && !strings.Contains(tc.query, "LIMIT 0") && !strings.Contains(tc.query, "'nope'") {
				t.Errorf("%q returned no rows; the case compares nothing", tc.query)
			}
		})
	}
}

// TestBatchGatesReadTheSnapshot opens a Top-N cursor and a join cursor, lets
// another session update key columns and delete matching rows before the
// first Next, and checks that both cursors still return their snapshot's
// rows — the gates decide on the mirror generation the cursor pinned.
func TestBatchGatesReadTheSnapshot(t *testing.T) {
	s := newSession(t)
	s.User = "admin"
	loadGateTables(t, s)
	queries := []string{
		`SELECT ID, K, T FROM G ORDER BY K DESC, ID LIMIT 8`,
		`SELECT G.ID, G.K, D.DT FROM G, D WHERE G.K = D.DK AND G.T = D.DT`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = canon(mustExec(t, s, q), false) // also warms the mirrors
	}
	before := batchGatedRows.Load()
	cursors := make([]*Rows, len(queries))
	for i, q := range queries {
		rows, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		cursors[i] = rows
	}
	done := make(chan error)
	go func() {
		w := sameEngineSession(s, "admin")
		for _, stmt := range []string{
			`UPDATE G SET K = 42 WHERE K = 9`,
			`DELETE FROM G WHERE K = 8`,
			`UPDATE G SET T = 'zeta' WHERE ID < 600`,
			`DELETE FROM D WHERE DK = 3`,
			`UPDATE D SET DK = 8 WHERE DK = 4`,
		} {
			if _, err := w.Exec(stmt); err != nil {
				done <- fmt.Errorf("%s: %w", stmt, err)
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, rows := range cursors {
		res, err := rows.materialize()
		if err != nil {
			t.Fatal(err)
		}
		if got := canon(res, false); got != want[i] {
			t.Errorf("%q after concurrent writes\n got: %s\nwant (snapshot): %s", queries[i], got, want[i])
		}
		if now := canon(mustExec(t, s, queries[i]), false); now == want[i] {
			t.Errorf("%q: the writes did not change its result; the test proves nothing", queries[i])
		}
	}
	if batchGatedRows.Load() == before {
		t.Error("neither cursor dropped a row at a gate")
	}
}

// TestJoinKeyAllocFree: encoding a join key into a warm buffer allocates
// nothing, for every class the hash join normalizes.
func TestJoinKeyAllocFree(t *testing.T) {
	row := value.Row{
		value.NewInt(42),
		value.NewFloat(math.Copysign(0, -1)),
		value.NewText("ACGT"),
		value.NewSequence("TTGACC"),
	}
	cols := []joinKeyCol{{0, classNumeric}, {1, classNumeric}, {2, classString}, {3, classString}}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf, _ = joinKey(buf, row, cols) }); n != 0 {
		t.Errorf("joinKey allocates %.1f times per key", n)
	}
}

// TestJoinKeyGolden pins the key bytes: values `=` calls equal — INT 1 and
// FLOAT 1.0, FLOAT 0.0 and -0.0, TEXT and SEQUENCE with equal bytes — share
// one key, and the encoding is the one hash joins have always used.
func TestJoinKeyGolden(t *testing.T) {
	cases := []struct {
		v     value.Value
		class compareClass
		hex   string
	}{
		{value.NewInt(1), classNumeric, "0902bff0000000000000"},
		{value.NewFloat(1.0), classNumeric, "0902bff0000000000000"},
		{value.NewFloat(0), classNumeric, "09028000000000000000"},
		{value.NewFloat(math.Copysign(0, -1)), classNumeric, "09028000000000000000"},
		{value.NewInt(-7), classNumeric, "09023fe3ffffffffffff"},
		{value.NewText("ACGT"), classString, "06034143475400"},
		{value.NewSequence("ACGT"), classString, "06034143475400"},
		{value.NewText(""), classString, "020300"},
		{value.NewBool(true), classBool, "020401"},
	}
	for _, tc := range cases {
		got, ok := appendJoinKey(nil, tc.v, tc.class)
		if !ok || hex.EncodeToString(got) != tc.hex {
			t.Errorf("key of %s %v = %x (ok %v), want %s", tc.v.Type(), tc.v, got, ok, tc.hex)
		}
	}
	comp, ok := joinKey(nil, value.Row{value.NewInt(7), value.NewText("x")},
		[]joinKeyCol{{0, classNumeric}, {1, classString}})
	if want := "0902c01c00000000000003037800"; !ok || hex.EncodeToString(comp) != want {
		t.Errorf("composite key = %x, want %s", comp, want)
	}
	if _, ok := appendJoinKey(nil, value.Value{}, classNumeric); ok {
		t.Error("NULL produced a join key")
	}
}
