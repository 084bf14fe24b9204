package bdbms

import (
	"math"
	"testing"
)

// TestGroupByKeepsNullAndTextNullApart: a GROUP BY key part is either NULL or
// a length-prefixed rendering, so NULL and the text 'NULL' form two groups,
// and NUL bytes inside values cannot move the boundary between two key
// columns. Every executor (reference, row path, batched; in memory and
// spilled) agrees.
func TestGroupByKeepsNullAndTextNullApart(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, Name TEXT, A TEXT, B TEXT)`)
	s := db.Session("admin")
	ins, err := s.Prepare(`INSERT INTO T VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range [][3]any{
		{nil, "x\x00y", "z"},
		{"NULL", "x", "y\x00z"},
		{"a", "x\x00y", "z"},
		{nil, "x", "y\x00z"},
	} {
		if _, err := ins.Exec(i, r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct{ sql, want string }{
		{`SELECT Name, COUNT(*) FROM T GROUP BY Name`, "(NULL, 2) (NULL, 1) (a, 1)"},
		{`SELECT COUNT(*) FROM T GROUP BY A, B`, "(2) (2)"},
		{`SELECT DISTINCT Name FROM T`, "(NULL) (NULL) (a)"},
	}
	for _, budget := range []int{0, 1} {
		for _, path := range []string{"reference", "row path", "batched"} {
			s.SpillBudget = budget
			s.NoOptimize = path == "reference"
			s.NoVectorize = path == "row path"
			for _, c := range cases {
				res, err := s.Exec(c.sql)
				if err != nil {
					t.Fatalf("%s (%s, budget %d): %v", c.sql, path, budget, err)
				}
				got := ""
				for i, r := range res.Rows {
					if i > 0 {
						got += " "
					}
					got += r.Values.String()
				}
				if got != c.want {
					t.Errorf("%s (%s, budget %d) = %s, want %s", c.sql, path, budget, got, c.want)
				}
			}
		}
	}
	// The first NULL row and the text 'NULL' row carry different types.
	s.NoOptimize, s.NoVectorize, s.SpillBudget = false, false, 0
	res, err := s.Exec(`SELECT Name, COUNT(*) FROM T GROUP BY Name`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0].Values[0].IsNull() || res.Rows[1].Values[0].IsNull() {
		t.Errorf("groups = %v, %v: want the NULL group first, then the text 'NULL'", res.Rows[0].Values, res.Rows[1].Values)
	}
}

// TestDistinctAndSetOpsKeepNulSeparatedRowsApart: a DISTINCT or set-operation
// row key length-prefixes each column, so two rows whose TEXT columns differ
// only in where a NUL byte splits them stay two rows, while a type tag keeps
// INT 1 and FLOAT 1 apart. Every executor agrees, in memory and spilled.
func TestDistinctAndSetOpsKeepNulSeparatedRowsApart(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, A TEXT, B TEXT)`)
	db.MustExec(`CREATE TABLE N (ID INT NOT NULL PRIMARY KEY, I INT, F FLOAT)`)
	db.MustExec(`INSERT INTO N VALUES (1, 1, 1.0)`)
	s := db.Session("admin")
	ins, err := s.Prepare(`INSERT INTO T VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range [][2]string{{"x\x00TEXT:y", "z"}, {"x", "y\x00TEXT:z"}} {
		if _, err := ins.Exec(i, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT DISTINCT A, B FROM T`, 2},
		{`SELECT A, B FROM T UNION SELECT A, B FROM T`, 2},
		{`SELECT A, B FROM T INTERSECT SELECT A, B FROM T`, 2},
		{`SELECT A, B FROM T EXCEPT SELECT A, B FROM T WHERE ID = 0`, 1},
		{`SELECT COUNT(*) FROM T GROUP BY A, B`, 2},
		{`SELECT I FROM N UNION SELECT F FROM N`, 2},
	}
	for _, budget := range []int{0, 1} {
		for _, path := range []string{"reference", "row path", "batched"} {
			s.SpillBudget = budget
			s.NoOptimize = path == "reference"
			s.NoVectorize = path == "row path"
			for _, c := range cases {
				res, err := s.Exec(c.sql)
				if err != nil {
					t.Fatalf("%s (%s, budget %d): %v", c.sql, path, budget, err)
				}
				if len(res.Rows) != c.want {
					t.Errorf("%s (%s, budget %d) = %d rows, want %d", c.sql, path, budget, len(res.Rows), c.want)
				}
			}
		}
	}
}

// TestNegativeZeroIsOneKey: FLOAT 0.0 and -0.0 are equal under `=`, so
// GROUP BY, DISTINCT and the set operations merge them exactly as the
// self-join and WHERE match them. Every executor agrees, in memory and
// spilled.
func TestNegativeZeroIsOneKey(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, F FLOAT)`)
	s := db.Session("admin")
	ins, err := s.Prepare(`INSERT INTO T VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []float64{0, math.Copysign(0, -1)} {
		if _, err := ins.Exec(i, f); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT a.ID FROM T a, T b WHERE a.F = b.F`, 4},
		{`SELECT ID FROM T WHERE F = 0.0`, 2},
		{`SELECT F, COUNT(*) FROM T GROUP BY F`, 1},
		{`SELECT DISTINCT F FROM T`, 1},
		{`SELECT F FROM T WHERE ID = 0 UNION SELECT F FROM T WHERE ID = 1`, 1},
		{`SELECT F FROM T WHERE ID = 0 INTERSECT SELECT F FROM T WHERE ID = 1`, 1},
		{`SELECT F FROM T WHERE ID = 0 EXCEPT SELECT F FROM T WHERE ID = 1`, 0},
	}
	for _, budget := range []int{0, 1} {
		for _, path := range []string{"reference", "row path", "batched"} {
			s.SpillBudget = budget
			s.NoOptimize = path == "reference"
			s.NoVectorize = path == "row path"
			for _, c := range cases {
				res, err := s.Exec(c.sql)
				if err != nil {
					t.Fatalf("%s (%s, budget %d): %v", c.sql, path, budget, err)
				}
				if len(res.Rows) != c.want {
					t.Errorf("%s (%s, budget %d) = %d rows, want %d", c.sql, path, budget, len(res.Rows), c.want)
				}
			}
		}
	}
}
