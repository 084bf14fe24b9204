package bdbms

import (
	"fmt"
	"strings"
	"testing"
)

// TestBigIntegersCompareExactly: integers above 2^53, which float64 cannot
// tell apart, compare as the integers they are. An index probe, a full scan,
// a hash join, grouping, ordering, a mixed INT/FLOAT comparison and an index
// range over a FLOAT column bounded by a big INT all agree, on every executor
// (reference, row path, batched).
func TestBigIntegersCompareExactly(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V INT)`)
	db.MustExec(`CREATE TABLE U (K INT, W INT)`)
	db.MustExec(`CREATE TABLE F (ID INT NOT NULL PRIMARY KEY, X FLOAT)`)
	db.MustExec(`CREATE INDEX ON F (X)`)
	for i, n := range []string{"9007199254740992", "9007199254740993"} {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%s, %s)`, n, n))
		db.MustExec(fmt.Sprintf(`INSERT INTO U VALUES (%s, %s)`, n, n))
		db.MustExec(fmt.Sprintf(`INSERT INTO F VALUES (%d, %s.0)`, i+1, n))
	}
	db.MustExec(`INSERT INTO F VALUES (3, 9007199254740996.0)`)
	cases := []struct{ sql, want string }{
		{`SELECT ID, V FROM T WHERE ID = 9007199254740993`, "(9007199254740993, 9007199254740993)"},
		{`SELECT ID FROM T WHERE ID >= 9007199254740992 AND ID < 9007199254740993`, "(9007199254740992)"},
		{`SELECT K FROM U WHERE K = 9007199254740993`, "(9007199254740993)"},
		{`SELECT K FROM U WHERE K > 9007199254740992`, "(9007199254740993)"},
		{`SELECT K FROM U WHERE K = 9007199254740992.0`, "(9007199254740992)"},
		{`SELECT T.ID, U.K FROM T, U WHERE T.ID = U.K`, "(9007199254740992, 9007199254740992) (9007199254740993, 9007199254740993)"},
		{`SELECT COUNT(*) FROM U GROUP BY K`, "(1) (1)"},
		{`SELECT DISTINCT ID FROM T`, "(9007199254740992) (9007199254740993)"},
		{`SELECT K FROM U ORDER BY K DESC`, "(9007199254740993) (9007199254740992)"},
		{`SELECT MAX(K) FROM U`, "(9007199254740993)"},
		// An indexed FLOAT column probed with an INT that float64 rounds.
		{`SELECT ID FROM F WHERE X <= 9007199254740993`, "(1) (2)"},
		{`SELECT ID FROM F WHERE X < 9007199254740993`, "(1) (2)"},
		{`SELECT ID FROM F WHERE X > 9007199254740993`, "(3)"},
		{`SELECT ID FROM F WHERE X >= 9007199254740995`, "(3)"},
		{`SELECT ID FROM F WHERE X = 9007199254740993`, ""},
	}
	s := db.Session("admin")
	for _, path := range []string{"reference", "row path", "batched"} {
		s.NoOptimize = path == "reference"
		s.NoVectorize = path == "row path"
		for _, c := range cases {
			res, err := s.Exec(c.sql)
			if err != nil {
				t.Fatalf("%s (%s): %v", c.sql, path, err)
			}
			got := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				got[i] = r.Values.String()
			}
			if g := strings.Join(got, " "); g != c.want {
				t.Errorf("%s (%s) = %s, want %s", c.sql, path, g, c.want)
			}
		}
	}
}
