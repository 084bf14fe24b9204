package server

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bdbms"
	"bdbms/internal/dependency"
	"bdbms/internal/server/wire"
	"bdbms/internal/value"
)

var updateRowFrames = flag.Bool("update-row-frames", false, "rewrite testdata/row_frames.golden from the running server")

// rowFrameQuery is one statement the corpus runs: its SQL, bound arguments
// and the Execute/Fetch page size (0 = all rows in one Execute).
type rowFrameQuery struct {
	sql     string
	args    []value.Value
	maxRows int
}

// rowFrameQueries cover PROTOCOL.md's paged point read and the shapes whose
// rows reach the wire from a batch source or the row scan: full scans and
// index gathers (single- and multi-batch), NULLs, annotations of two
// annotation tables, outdated marks, PROMOTE, FILTER, AWHERE, expressions,
// joins and the blocking operators.
var rowFrameQueries = []rowFrameQuery{
	// Full scans first: the first one builds the columnar mirror, which the
	// range reads after it then gather from.
	{sql: `SELECT * FROM Gene ANNOTATION(*) WHERE Score > 95`},
	{sql: `SELECT GID, Fam, Ok FROM Gene WHERE Ok = TRUE AND GID < 200`},
	{sql: `SELECT * FROM Family ANNOTATION(*)`},
	{sql: `SELECT Name FROM Gene WHERE GID = ?`, args: []value.Value{value.NewInt(42)}, maxRows: 100},
	{sql: `SELECT Name FROM Gene WHERE GID >= ? AND GID <= ?`, args: []value.Value{value.NewInt(40), value.NewInt(60)}, maxRows: 7},
	{sql: `SELECT GID, Name, Seq FROM Gene ANNOTATION(*) WHERE GID >= 100 AND GID <= 160`},
	{sql: `SELECT GID, Seq FROM Gene ANNOTATION(Notes) WHERE GID >= 20 AND GID <= 1150`, maxRows: 500},
	{sql: `SELECT * FROM Gene ANNOTATION(*) WHERE GID >= 290 AND GID <= 330`},
	{sql: `SELECT GID, Fam, Ok FROM Gene WHERE GID >= 300 AND GID <= 340`},
	{sql: `SELECT GID PROMOTE(Seq, Fam) FROM Gene ANNOTATION(*) WHERE GID >= 5 AND GID <= 25`},
	{sql: `SELECT GID, Name, Seq FROM Gene ANNOTATION(*) WHERE GID <= 80 FILTER ANN.TABLE = 'Curation'`},
	{sql: `SELECT GID, Seq FROM Gene ANNOTATION(*) WHERE GID <= 400 AWHERE ANN.VALUE LIKE '%n1%'`},
	{sql: `SELECT GID, Score * 2, Name FROM Gene ANNOTATION(*) WHERE GID >= 10 AND GID <= 30`},
	{sql: `SELECT Gene.GID, Family.Label, Gene.Seq FROM Gene ANNOTATION(*), Family ANNOTATION(*) WHERE Gene.Fam = Family.FamName AND Gene.GID < 40`},
	{sql: `SELECT Fam, COUNT(*), SUM(Score) FROM Gene ANNOTATION(*) GROUP BY Fam`},
	{sql: `SELECT DISTINCT Fam FROM Gene ANNOTATION(*) WHERE GID < 100`},
	{sql: `SELECT GID, Score FROM Gene ANNOTATION(*) WHERE GID < 500 ORDER BY Score DESC LIMIT 5`},
	{sql: `SELECT GID, Name FROM Gene WHERE GID >= 5000`},
}

// setupRowFrameDB loads the corpus database: a two-chunk Gene table with
// NULLs in text, float and dictionary-coded columns, annotations of two
// annotation tables on cell ranges, rows and a column, outdated marks left by
// a dependency rule, and a small Family table to join against.
func setupRowFrameDB(t *testing.T, db *bdbms.DB) {
	t.Helper()
	db.MustExec(`CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, Name TEXT, Seq SEQUENCE, Score FLOAT, Fam TEXT, Ok BOOL)`)
	db.MustExec(`CREATE TABLE Family (FamName TEXT NOT NULL PRIMARY KEY, Label TEXT)`)
	fams := []string{"kinase", "porin", "ligase", "helicase"}
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	for i := 1; i <= 1300; i++ {
		name, score, fam := fmt.Sprintf("'g%d'", i), fmt.Sprintf("%.2f", rng.Float64()*100), "'"+fams[rng.Intn(len(fams))]+"'"
		if i%7 == 0 {
			name = "NULL"
		}
		if i%11 == 0 {
			score = "NULL"
		}
		if i%13 == 0 {
			fam = "NULL"
		}
		seq := []byte("ACGT")
		rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
		fmt.Fprintf(&b, "INSERT INTO Gene VALUES (%d, %s, '%s', %s, %s, %v);\n", i, name, seq, score, fam, i%3 == 0)
	}
	for _, f := range fams[:3] {
		fmt.Fprintf(&b, "INSERT INTO Family VALUES ('%s', 'family %s');\n", f, f)
	}
	b.WriteString(`CREATE ANNOTATION TABLE Notes ON Gene;
CREATE ANNOTATION TABLE Curation ON Gene;
CREATE ANNOTATION TABLE FamNotes ON Family;
ADD ANNOTATION TO Family.FamNotes VALUE '<Annotation>reviewed family</Annotation>' ON (SELECT Label FROM Family WHERE FamName = 'porin');
`)
	for k := 0; k < 40; k++ {
		lo := 1 + rng.Intn(1250)
		hi := lo + rng.Intn(60)
		cols := []string{"Seq", "Name", "Name, Seq", "*"}[k%4]
		tbl := []string{"Notes", "Curation"}[k%2]
		fmt.Fprintf(&b, "ADD ANNOTATION TO Gene.%s VALUE '<Annotation>n%d</Annotation>' ON (SELECT %s FROM Gene WHERE GID >= %d AND GID <= %d);\n", tbl, k, cols, lo, hi)
	}
	b.WriteString(`ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>whole column</Annotation>' ON (SELECT Score FROM Gene);` + "\n")
	if _, err := db.ExecAll(b.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Dependencies().AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Gene", Column: "Score"}},
		Targets: []dependency.ColumnRef{{Table: "Gene", Column: "Fam"}},
		Proc:    dependency.Procedure{Name: "family from score", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`UPDATE Gene SET Score = 50.5 WHERE GID >= 295 AND GID <= 320`)
	db.MustExec(`UPDATE Gene SET Score = 99.5 WHERE GID = 17 OR GID = 1250`)
}

// TestRowFramesMatchGolden runs the corpus over a real connection and
// compares every reply frame, byte for byte, with testdata/row_frames.golden.
// Run with -update-row-frames to rewrite the file.
func TestRowFramesMatchGolden(t *testing.T) {
	db := openTestDB(t)
	setupRowFrameDB(t, db)
	_, addr := startServer(t, db, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(time.Minute))
	hello := wire.Hello{Version: wire.ProtocolVersion, User: "admin", Secret: "admin-secret"}
	if err := wire.WriteFrame(nc, wire.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(nc, wire.MaxFrame); err != nil || typ != wire.TypeAuthOK {
		t.Fatalf("handshake = %c/%v", typ, err)
	}

	var out bytes.Buffer
	for _, q := range rowFrameQueries {
		fmt.Fprintf(&out, "-- %s | args %v | maxRows %d\n", q.sql, q.args, q.maxRows)
		wire.WriteFrame(nc, wire.TypeParse, wire.Parse{SQL: q.sql}.Encode())
		wire.WriteFrame(nc, wire.TypeBind, wire.Bind{Args: q.args}.Encode())
		wire.WriteFrame(nc, wire.TypeExecute, wire.Execute{MaxRows: q.maxRows}.Encode())
		for {
			typ, payload, err := wire.ReadFrame(nc, wire.MaxFrame)
			if err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
			if typ == wire.TypeError {
				e, _ := wire.DecodeError(payload)
				t.Fatalf("%s: error frame %s: %s", q.sql, e.Code, e.Message)
			}
			if typ == wire.TypeParseOK || typ == wire.TypeBindOK {
				continue
			}
			fmt.Fprintf(&out, "%c %s\n", typ, hex.EncodeToString(payload))
			if typ == wire.TypeSuspended {
				wire.WriteFrame(nc, wire.TypeFetch, wire.Fetch{MaxRows: q.maxRows}.Encode())
			}
			if typ == wire.TypeComplete {
				break
			}
		}
	}

	path := filepath.Join("testdata", "row_frames.golden")
	if *updateRowFrames {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("line %d differs from %s:\n got: %.200s\nwant: %.200s", i+1, path, got[i], exp[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(got), len(exp))
}
