package exec

// Windowed decoration must be invisible: every cell of every decorated row
// holds exactly what Manager.ForCell returns for it at that moment (same
// annotations, same order, nil when there are none), followed by the cell's
// outdated mark when it has one — on both storage schemes, for rows arriving
// in ascending, descending and random RowID order, and across annotation
// changes made between two Next calls of an open cursor.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/dependency"
	"bdbms/internal/provenance"
	"bdbms/internal/storage"
)

// newSessionWithStore is newSession over the given annotation storage scheme.
func newSessionWithStore(t *testing.T, store annotation.Store) *Session {
	t.Helper()
	eng := storage.NewMemoryEngine()
	ann := annotation.NewManager(eng.Catalog(), engineResolver{eng: eng}, annotation.WithStore(store))
	return &Session{
		Eng:  eng,
		Ann:  ann,
		Prov: provenance.NewManager(ann),
		Dep:  dependency.NewManager(eng),
		Auth: authz.NewManager(eng),
		User: "admin",
	}
}

// loadDecorTables creates W (300 rows, RowID = ID, every 17th row up to 102
// deleted; K descends as ID ascends, R is a permutation of ID, G = ID mod 9;
// all three indexed) and V (60 rows), then annotates them: cells, whole rows, a whole column, one
// annotation with regions on W and on V, one on V with a region naming W in
// another spelling, an archived one, and outdated marks on B of rows 50-58.
func loadDecorTables(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE W (ID INT NOT NULL PRIMARY KEY, K INT NOT NULL, R INT NOT NULL, A TEXT, B TEXT, G INT)`)
	mustExec(t, s, `CREATE INDEX ON W (K)`)
	mustExec(t, s, `CREATE INDEX ON W (R)`)
	mustExec(t, s, `CREATE INDEX ON W (G)`)
	mustExec(t, s, `CREATE TABLE V (ID INT NOT NULL PRIMARY KEY, K INT, C TEXT)`)
	var vals []string
	for i := 1; i <= 300; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d, 'a%d', 'b%d', %d)", i, 1000-i, (i*97)%301, i%5, i, i%9))
	}
	mustExec(t, s, `INSERT INTO W VALUES `+strings.Join(vals, ", "))
	vals = vals[:0]
	for i := 1; i <= 60; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 'c%d')", i, (i*53)%301, i))
	}
	mustExec(t, s, `INSERT INTO V VALUES `+strings.Join(vals, ", "))
	mustExec(t, s, `DELETE FROM W WHERE ID = 17 OR ID = 34 OR ID = 51 OR ID = 68 OR ID = 85 OR ID = 102`)

	mustExec(t, s, `CREATE ANNOTATION TABLE Notes ON W`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Lineage ON W`)
	mustExec(t, s, `CREATE ANNOTATION TABLE VNotes ON V`)
	mustExec(t, s, `ADD ANNOTATION TO W.Notes VALUE 'A cells' ON (SELECT A FROM W WHERE ID < 40 OR ID > 150)`)
	mustExec(t, s, `ADD ANNOTATION TO W.Lineage VALUE 'rows 40-120' ON (SELECT * FROM W WHERE ID >= 40 AND ID <= 120)`)
	mustExec(t, s, `ADD ANNOTATION TO W.Notes VALUE 'column B' ON (SELECT B FROM W)`)
	mustExec(t, s, `ADD ANNOTATION TO V.VNotes VALUE 'V rows' ON (SELECT * FROM V WHERE ID <= 20)`)
	if _, err := s.Ann.Add("W", "Notes", "two tables", "admin", []annotation.Region{
		{Table: "W", ColStart: 1, ColEnd: 2, RowStart: 10, RowEnd: 20},
		{Table: "W", ColStart: 4, ColEnd: 5, RowStart: 200, RowEnd: 230},
		{Table: "W", ColStart: 2, ColEnd: 3, RowStart: 15, RowEnd: 25},
		{Table: "V", ColStart: 0, ColEnd: 2, RowStart: 1, RowEnd: 30},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ann.Add("V", "VNotes", "names w", "admin", []annotation.Region{
		{Table: "V", ColStart: 0, ColEnd: 2, RowStart: 5, RowEnd: 9},
		{Table: "w", ColStart: 0, ColEnd: 1, RowStart: 60, RowEnd: 70},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `ADD ANNOTATION TO W.Lineage VALUE 'archived' ON (SELECT K, R FROM W WHERE ID >= 130 AND ID <= 140)`)
	mustExec(t, s, `ARCHIVE ANNOTATION FROM W.Lineage ON (SELECT R FROM W WHERE ID = 135)`)
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "W", Column: "A"}},
		Targets: []dependency.ColumnRef{{Table: "W", Column: "B"}},
		Proc:    dependency.Procedure{Name: "decor rule", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `UPDATE W SET A = 'z' WHERE ID >= 50 AND ID <= 58`)
}

// decorSrc says where one source's columns sit in a SELECT * row.
type decorSrc struct {
	table   string
	offset  int
	numCols int
	filter  annotation.Filter
}

// checkDecorated fails unless every cell of row holds ForCell's answer for it
// now, followed by its outdated mark when it has one. The ID column (the
// first of each source) is the row's RowID. Projection hands out empty cells
// as empty slices, so nil-ness is TestAnnotateMatchesForCell's to check.
func checkDecorated(t *testing.T, s *Session, what string, row ARow, srcs []decorSrc) {
	t.Helper()
	for _, src := range srcs {
		rowID := row.Values[src.offset].Int()
		bm := s.Dep.Bitmap(src.table)
		for c := 0; c < src.numCols; c++ {
			got := row.Anns[src.offset+c]
			want := s.Ann.ForCell(src.table, rowID, c, src.filter)
			marked := bm.IsSet(rowID, c)
			real := got
			if marked {
				if len(got) == 0 || got[len(got)-1].ID != 0 {
					t.Fatalf("%s: %s row %d col %d: no outdated mark at the end of %v", what, src.table, rowID, c, got)
				}
				mark := got[len(got)-1]
				wantMark := outdatedMark(src.table, s.mustColumnName(t, src.table, c), rowID, c)
				if mark.Body != wantMark.Body || mark.AnnTable != OutdatedAnnTable {
					t.Fatalf("%s: %s row %d col %d: mark %q, want %q", what, src.table, rowID, c, mark.Body, wantMark.Body)
				}
				real = got[:len(got)-1]
			}
			if len(real) != len(want) {
				t.Fatalf("%s: %s row %d col %d: %d annotations, ForCell %d", what, src.table, rowID, c, len(real), len(want))
			}
			for i := range want {
				if real[i] != want[i] {
					t.Fatalf("%s: %s row %d col %d: annotation %d is #%d, ForCell #%d", what, src.table, rowID, c, i, real[i].ID, want[i].ID)
				}
			}
		}
	}
}

func (s *Session) mustColumnName(t *testing.T, table string, col int) string {
	t.Helper()
	tbl, err := s.Eng.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Schema().ColumnNames()[col]
}

// rowOrder classifies a sequence of RowIDs.
func rowOrder(ids []int64) string {
	asc, desc := true, true
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			asc = false
		}
		if ids[i] > ids[i-1] {
			desc = false
		}
	}
	switch {
	case len(ids) < 2:
		return "single"
	case asc:
		return "ascending"
	case desc:
		return "descending"
	}
	return "random"
}

var (
	wAll = decorSrc{table: "W", numCols: 6}
	vAll = decorSrc{table: "V", numCols: 3}
	wAt3 = decorSrc{table: "W", offset: 3, numCols: 6}
)

// TestWindowedDecorationMatchesForCell runs annotated queries whose rows reach
// the decorator in every RowID order and checks each cell against ForCell,
// and each result against the reference executor.
func TestWindowedDecorationMatchesForCell(t *testing.T) {
	notes := annotation.Filter{AnnTables: []string{"Notes"}}
	cases := []struct {
		name, query string
		srcs        []decorSrc
		order       string // the order srcs[0]'s RowIDs reach the decorator in
	}{
		{"index range", `SELECT * FROM W ANNOTATION(*) WHERE ID >= 5 AND ID <= 260`, []decorSrc{wAll}, "ascending"},
		{"scan with gaps", `SELECT * FROM W ANNOTATION(*) WHERE A <> 'a3'`, []decorSrc{wAll}, "ascending"},
		{"index probe list", `SELECT * FROM W ANNOTATION(*) WHERE G = 4`, []decorSrc{wAll}, "ascending"},
		{"one annotation table", `SELECT * FROM W ANNOTATION(Notes) WHERE ID >= 1 AND ID <= 300`, []decorSrc{{table: "W", numCols: 6, filter: notes}}, "ascending"},
		{"index order descending", `SELECT * FROM W ANNOTATION(*) ORDER BY K`, []decorSrc{wAll}, "descending"},
		{"index order random", `SELECT * FROM W ANNOTATION(Lineage, Notes) ORDER BY R`, []decorSrc{{table: "W", numCols: 6, filter: annotation.Filter{AnnTables: []string{"Lineage", "Notes"}}}}, "random"},
		{"point read", `SELECT * FROM W ANNOTATION(*) WHERE ID = 15`, []decorSrc{wAll}, "single"},
		{"join", `SELECT * FROM V ANNOTATION(*), W ANNOTATION(*) WHERE V.K = W.R`, []decorSrc{wAt3, vAll}, "random"},
		{"join one side", `SELECT * FROM W ANNOTATION(Lineage), V WHERE W.ID = V.ID`, []decorSrc{{table: "W", numCols: 6, filter: annotation.Filter{AnnTables: []string{"Lineage"}}}}, "ascending"},
	}
	for _, scheme := range []struct {
		name  string
		store func() annotation.Store
	}{
		{"rectangle", func() annotation.Store { return annotation.NewRectStore() }},
		{"cell", func() annotation.Store { return annotation.NewCellStore() }},
	} {
		t.Run(scheme.name, func(t *testing.T) {
			s := newSessionWithStore(t, scheme.store())
			loadDecorTables(t, s)
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					before := decorateWindows.Load()
					res := mustExec(t, s, tc.query)
					if decorateWindows.Load() == before {
						t.Fatalf("%q read no annotation window", tc.query)
					}
					var ids []int64
					annotated := 0
					for _, row := range res.Rows {
						checkDecorated(t, s, tc.query, row, tc.srcs)
						ids = append(ids, row.Values[tc.srcs[0].offset].Int())
						annotated += len(row.AnnotationsFlat())
					}
					if got := rowOrder(ids); got != tc.order {
						t.Fatalf("%q: %s's rows came %s (%d rows), the case needs them %s", tc.query, tc.srcs[0].table, got, len(ids), tc.order)
					}
					if annotated == 0 {
						t.Fatalf("%q: no row carried an annotation; the case compares nothing", tc.query)
					}
					s.NoOptimize = true
					ref := mustExec(t, s, tc.query)
					s.NoOptimize = false
					if got, want := canonResult(res), canonResult(ref); got != want {
						t.Fatalf("%q: planned and reference differ\n got: %s\nwant: %s", tc.query, got, want)
					}
				})
			}
		})
	}
}

// TestAnnotateMatchesForCell drives one source's window directly through
// RowID sequences no plan produces on its own (jumps, repeats, rows past the
// table's end) and compares every cell with ForCell, nil included.
func TestAnnotateMatchesForCell(t *testing.T) {
	for _, store := range []annotation.Store{annotation.NewRectStore(), annotation.NewCellStore()} {
		s := newSessionWithStore(t, store)
		loadDecorTables(t, s)
		tbl, err := s.Eng.Table("W")
		if err != nil {
			t.Fatal(err)
		}
		src := &sourcePlan{tbl: tbl, numCols: len(tbl.Schema().Columns)}
		r := rand.New(rand.NewSource(7))
		var random, jumps []int64
		for i := 0; i < 400; i++ {
			random = append(random, 1+r.Int63n(320))
		}
		for id := int64(1); id <= 320; id += 1 + r.Int63n(40) {
			jumps = append(jumps, id, id)
		}
		var asc, desc []int64
		for id := int64(1); id <= 320; id++ {
			asc = append(asc, id)
			desc = append(desc, 321-id)
		}
		for _, f := range []annotation.Filter{{}, {AnnTables: []string{"Lineage"}}, {IncludeArchived: true}} {
			for name, seq := range map[string][]int64{"ascending": asc, "descending": desc, "random": random, "jumps": jumps} {
				as := annSource{src: src, want: true, filter: f, win: annWindow{lo: 1}}
				for _, rowID := range seq {
					cells := make([][]*annotation.Annotation, 6)
					as.annotate(cells, s.Ann, rowID)
					for c := range cells {
						want := s.Ann.ForCell("W", rowID, c, f)
						if (cells[c] == nil) != (want == nil) || len(cells[c]) != len(want) {
							t.Fatalf("%s %s %+v: row %d col %d: %v, ForCell %v", store.Name(), name, f, rowID, c, cells[c], want)
						}
						for i := range want {
							if cells[c][i] != want[i] {
								t.Fatalf("%s %s %+v: row %d col %d: annotation %d is #%d, ForCell #%d", store.Name(), name, f, rowID, c, i, cells[c][i].ID, want[i].ID)
							}
						}
					}
				}
				if size := as.win.hi - as.win.lo + 1; size > decorateWindowCap {
					t.Fatalf("window of %d rows exceeds the cap %d", size, decorateWindowCap)
				}
			}
		}
	}
}

// TestOpenCursorSeesAnnotationChanges changes annotations between two Next
// calls of an open annotated cursor, inside the window it is reading: every
// row after the change must carry what ForCell returns after it.
func TestOpenCursorSeesAnnotationChanges(t *testing.T) {
	changes := []struct {
		name string
		sql  string
	}{
		{"add", `ADD ANNOTATION TO W.Notes VALUE 'late' ON (SELECT A, B FROM W WHERE ID >= 20 AND ID <= 90)`},
		{"archive", `ARCHIVE ANNOTATION FROM W.Lineage ON (SELECT * FROM W WHERE ID >= 40 AND ID <= 120)`},
		{"restore", `RESTORE ANNOTATION FROM W.Lineage ON (SELECT * FROM W WHERE ID >= 40 AND ID <= 140)`},
		{"drop annotation table", `DROP ANNOTATION TABLE Lineage ON W`},
	}
	for _, store := range []func() annotation.Store{
		func() annotation.Store { return annotation.NewRectStore() },
		func() annotation.Store { return annotation.NewCellStore() },
	} {
		s := newSessionWithStore(t, store())
		loadDecorTables(t, s)
		other := &Session{Eng: s.Eng, Ann: s.Ann, Prov: s.Prov, Dep: s.Dep, Auth: s.Auth, User: "admin"}
		for _, ch := range changes {
			t.Run(s.Ann.StoreName()+"/"+ch.name, func(t *testing.T) {
				rows, err := s.Query(context.Background(), `SELECT * FROM W ANNOTATION(*) WHERE ID >= 30 AND ID <= 200`)
				if err != nil {
					t.Fatal(err)
				}
				defer rows.Close()
				n := 0
				for rows.Next() {
					checkDecorated(t, s, ch.name, rows.Row(), []decorSrc{wAll})
					if n++; n == 12 {
						// The window now covers rows past the cursor.
						before := s.Ann.Generation()
						mustExec(t, other, ch.sql)
						if s.Ann.Generation() == before {
							t.Fatalf("%s did not move the annotation generation", ch.sql)
						}
					}
				}
				if err := rows.Err(); err != nil {
					t.Fatal(err)
				}
				if n < 100 {
					t.Fatalf("cursor returned %d rows", n)
				}
			})
		}
	}
}

// TestUnionAnnotations checks the union's order, its ID-0 rule and its
// allocation on both sides of the short-list limit: a's annotations then b's,
// each stored annotation once at its first occurrence, every synthetic one
// kept, a fresh slice, nil for two empty lists, and only the result allocated
// while the IDs fit the short list.
func TestUnionAnnotations(t *testing.T) {
	ann := func(id int64) *annotation.Annotation { return &annotation.Annotation{ID: id} }
	naive := func(a, b []*annotation.Annotation) []*annotation.Annotation {
		seen := map[int64]bool{}
		var out []*annotation.Annotation
		for _, x := range append(append([]*annotation.Annotation(nil), a...), b...) {
			if x.ID != 0 && seen[x.ID] {
				continue
			}
			seen[x.ID] = true
			out = append(out, x)
		}
		return out
	}
	if got := unionAnnotations(nil, []*annotation.Annotation{}); got != nil {
		t.Fatalf("union of empty lists = %v, want nil", got)
	}
	r := rand.New(rand.NewSource(5))
	pool := make([]*annotation.Annotation, 40)
	for i := range pool {
		pool[i] = ann(int64(i % 30)) // IDs 0..29, ID 0 (a mark) and some IDs twice
	}
	for _, n := range []int{1, 3, 8, 15, 16, 17, 40} {
		for trial := 0; trial < 50; trial++ {
			a := make([]*annotation.Annotation, r.Intn(n+1))
			b := make([]*annotation.Annotation, n-len(a))
			for i := range a {
				a[i] = pool[r.Intn(len(pool))]
			}
			for i := range b {
				b[i] = pool[r.Intn(len(pool))]
			}
			got, want := unionAnnotations(a, b), naive(a, b)
			if len(got) != len(want) {
				t.Fatalf("union(%d, %d): %d annotations, want %d", len(a), len(b), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("union(%d, %d): element %d is #%d, want #%d", len(a), len(b), i, got[i].ID, want[i].ID)
				}
			}
			if len(a) > 0 && len(got) > 0 && &got[0] == &a[0] {
				t.Fatal("union returned its first operand")
			}
		}
	}
	a := []*annotation.Annotation{ann(1), ann(2), ann(0), ann(3)}
	b := []*annotation.Annotation{ann(3), ann(0), ann(4), ann(1)}
	if n := testing.AllocsPerRun(100, func() { unionAnnotations(a, b) }); n != 1 {
		t.Fatalf("short union allocated %v times, want 1 (the result)", n)
	}
}
