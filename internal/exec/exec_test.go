package exec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/catalog"
	"bdbms/internal/dependency"
	"bdbms/internal/provenance"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// engineResolver adapts the storage engine to annotation.TableResolver.
type engineResolver struct{ eng *storage.Engine }

func (r engineResolver) ColumnCount(table string) (int, error) {
	tbl, err := r.eng.Table(table)
	if err != nil {
		return 0, err
	}
	return len(tbl.Schema().Columns), nil
}

func (r engineResolver) MaxRowID(table string) (int64, error) {
	tbl, err := r.eng.Table(table)
	if err != nil {
		return 0, err
	}
	return tbl.NextRowID() - 1, nil
}

func newSession(t *testing.T) *Session {
	t.Helper()
	eng := storage.NewMemoryEngine()
	ann := annotation.NewManager(eng.Catalog(), engineResolver{eng: eng})
	s := &Session{
		Eng:  eng,
		Ann:  ann,
		Prov: provenance.NewManager(ann),
		Dep:  dependency.NewManager(eng),
		Auth: authz.NewManager(eng),
		User: "alice",
	}
	return s
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// loadFigure2 creates the DB1_Gene / DB2_Gene tables of Figures 2-3 with
// their annotations A1-A3 and B1-B5.
func loadFigure2(t *testing.T, s *Session) {
	t.Helper()
	script := `
	CREATE TABLE DB1_Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GSequence SEQUENCE);
	CREATE TABLE DB2_Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GSequence SEQUENCE);
	CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene CATEGORY 'comment';
	CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene CATEGORY 'comment';
	INSERT INTO DB1_Gene VALUES ('JW0080', 'mraW', 'ATGATGGAAAA');
	INSERT INTO DB1_Gene VALUES ('JW0082', 'ftsI', 'ATGAAAGCAGC');
	INSERT INTO DB1_Gene VALUES ('JW0055', 'yabP', 'ATGAAAGTATC');
	INSERT INTO DB1_Gene VALUES ('JW0078', 'fruR', 'GTGAAACTGGA');
	INSERT INTO DB2_Gene VALUES ('JW0080', 'mraW', 'ATGATGGAAAA');
	INSERT INTO DB2_Gene VALUES ('JW0041', 'fixB', 'ATGAACACGTT');
	INSERT INTO DB2_Gene VALUES ('JW0037', 'caiB', 'ATGGATCATCT');
	INSERT INTO DB2_Gene VALUES ('JW0027', 'ispH', 'ATGCAGATCCT');
	INSERT INTO DB2_Gene VALUES ('JW0055', 'yabP', 'ATGAAAGTATC');
	`
	if _, err := s.ExecAll(script); err != nil {
		t.Fatal(err)
	}
	// A1: first two tuples of DB1_Gene (published genes).
	mustExec(t, s, `ADD ANNOTATION TO DB1_Gene.GAnnotation
		VALUE '<Annotation>These genes are published in Smith et al.</Annotation>'
		ON (SELECT * FROM DB1_Gene WHERE GID = 'JW0080' OR GID = 'JW0082')`)
	// A2: tuples obtained from RegulonDB.
	mustExec(t, s, `ADD ANNOTATION TO DB1_Gene.GAnnotation
		VALUE '<Annotation>These genes were obtained from RegulonDB</Annotation>'
		ON (SELECT * FROM DB1_Gene WHERE GID = 'JW0078' OR GID = 'JW0055' OR GID = 'JW0082')`)
	// A3: single cell (GSequence of mraW).
	mustExec(t, s, `ADD ANNOTATION TO DB1_Gene.GAnnotation
		VALUE '<Annotation>Involved in methyltransferase activity</Annotation>'
		ON (SELECT GSequence FROM DB1_Gene WHERE GID = 'JW0080')`)
	// B1: curated rows of DB2_Gene.
	mustExec(t, s, `ADD ANNOTATION TO DB2_Gene.GAnnotation
		VALUE '<Annotation>Curated by user admin</Annotation>'
		ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080' OR GID = 'JW0041' OR GID = 'JW0037')`)
	// B3: entire GSequence column of DB2_Gene.
	mustExec(t, s, `ADD ANNOTATION TO DB2_Gene.GAnnotation
		VALUE '<Annotation>obtained from GenoBase</Annotation>'
		ON (SELECT GSequence FROM DB2_Gene)`)
	// B5: whole tuple of JW0080 (unknown function).
	mustExec(t, s, `ADD ANNOTATION TO DB2_Gene.GAnnotation
		VALUE '<Annotation>This gene has an unknown function</Annotation>'
		ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')`)
}

func TestDDLAndBasicSelect(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, Score FLOAT)")
	mustExec(t, s, "INSERT INTO Gene VALUES ('JW1', 'a', 1.5), ('JW2', 'b', 2.5), ('JW3', 'c', 0.5)")
	res := mustExec(t, s, "SELECT GID, Score FROM Gene WHERE Score > 1 ORDER BY Score DESC")
	if len(res.Columns) != 2 || res.Columns[0] != "GID" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 2 || res.Rows[0].Values[0].Text() != "JW2" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT * FROM Gene LIMIT 1")
	if len(res.Rows) != 1 || len(res.Rows[0].Values) != 3 {
		t.Errorf("star select = %+v", res)
	}
	mustExec(t, s, "CREATE INDEX ON Gene (GName)")
	mustExec(t, s, "UPDATE Gene SET Score = 9.9 WHERE GID = 'JW1'")
	res = mustExec(t, s, "SELECT Score FROM Gene WHERE GID = 'JW1'")
	if res.Rows[0].Values[0].Float() != 9.9 {
		t.Error("update not visible")
	}
	res = mustExec(t, s, "DELETE FROM Gene WHERE GID = 'JW3'")
	if res.Affected != 1 {
		t.Error("delete affected wrong")
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM Gene")
	if res.Rows[0].Values[0].Int() != 2 {
		t.Errorf("count = %v", res.Rows[0].Values[0])
	}
	mustExec(t, s, "DROP TABLE Gene")
	if _, err := s.Exec("SELECT * FROM Gene"); err == nil {
		t.Error("dropped table still queryable")
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE Match (Gene TEXT, Tool TEXT, Evalue FLOAT)")
	mustExec(t, s, `INSERT INTO Match VALUES
		('g1', 'blast', 0.1), ('g1', 'blast', 0.3), ('g2', 'blast', 0.2), ('g2', 'hmmer', 0.4)`)
	res := mustExec(t, s, "SELECT Gene, COUNT(*), AVG(Evalue), MIN(Evalue), MAX(Evalue), SUM(Evalue) FROM Match GROUP BY Gene ORDER BY Gene")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	g1 := res.Rows[0]
	if g1.Values[0].Text() != "g1" || g1.Values[1].Int() != 2 {
		t.Errorf("g1 = %v", g1.Values)
	}
	if g1.Values[2].Float() != 0.2 || g1.Values[3].Float() != 0.1 || g1.Values[4].Float() != 0.3 {
		t.Errorf("g1 aggregates = %v", g1.Values)
	}
	res = mustExec(t, s, "SELECT Gene FROM Match GROUP BY Gene HAVING COUNT(*) > 1")
	if len(res.Rows) != 2 {
		t.Errorf("having rows = %d", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT Tool, COUNT(Gene) FROM Match GROUP BY Tool HAVING COUNT(*) = 1")
	if len(res.Rows) != 1 || res.Rows[0].Values[0].Text() != "hmmer" {
		t.Errorf("having = %v", res.Rows)
	}
}

func TestAnnotationPropagationFigure2(t *testing.T) {
	s := newSession(t)
	loadFigure2(t, s)

	// Projecting GID from DB2_Gene propagates only B1, B4, B5-style
	// annotations (those covering GID cells), not the column annotation B3.
	res := mustExec(t, s, "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	bodies := annBodies(res.Rows[0])
	if !containsBody(bodies, "Curated by user admin") || !containsBody(bodies, "unknown function") {
		t.Errorf("GID annotations = %v", bodies)
	}
	if containsBody(bodies, "GenoBase") {
		t.Errorf("column annotation B3 must not propagate with GID: %v", bodies)
	}

	// Selecting the whole tuple of JW0080 propagates B1, B3 and B5.
	res = mustExec(t, s, "SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
	bodies = annBodies(res.Rows[0])
	for _, want := range []string{"Curated by user admin", "GenoBase", "unknown function"} {
		if !containsBody(bodies, want) {
			t.Errorf("tuple annotations missing %q: %v", want, bodies)
		}
	}

	// Without an ANNOTATION clause nothing propagates.
	res = mustExec(t, s, "SELECT * FROM DB2_Gene WHERE GID = 'JW0080'")
	if len(annBodies(res.Rows[0])) != 0 {
		t.Error("annotations propagated without ANNOTATION clause")
	}

	// PROMOTE copies the GSequence annotations (A3, B3) onto the projected GID.
	res = mustExec(t, s, "SELECT GID PROMOTE (GSequence) FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
	bodies = annBodies(res.Rows[0])
	if !containsBody(bodies, "GenoBase") {
		t.Errorf("PROMOTE did not copy column annotation: %v", bodies)
	}
}

func TestE6IntersectWithAnnotations(t *testing.T) {
	s := newSession(t)
	loadFigure2(t, s)

	// The paper's example: genes common to DB1_Gene and DB2_Gene along with
	// their annotations from both tables — one A-SQL statement instead of the
	// three-step manual plan (queries (a)-(c) in Section 3).
	res := mustExec(t, s, `
		SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation)
		INTERSECT
		SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)`)
	if len(res.Rows) != 2 {
		t.Fatalf("common genes = %d, want 2 (JW0080, JW0055)", len(res.Rows))
	}
	byGID := map[string]ARow{}
	for _, r := range res.Rows {
		byGID[r.Values[0].Text()] = r
	}
	r80, ok := byGID["JW0080"]
	if !ok {
		t.Fatal("JW0080 missing from intersection")
	}
	bodies := annBodies(r80)
	// Annotations must be consolidated from BOTH tables: A1, A3 (DB1) and
	// B1, B3, B5 (DB2).
	for _, want := range []string{"published", "methyltransferase", "Curated by user admin", "GenoBase", "unknown function"} {
		if !containsBody(bodies, want) {
			t.Errorf("JW0080 missing annotation %q: got %v", want, bodies)
		}
	}
	r55 := byGID["JW0055"]
	bodies = annBodies(r55)
	if !containsBody(bodies, "RegulonDB") || !containsBody(bodies, "GenoBase") {
		t.Errorf("JW0055 annotations = %v", bodies)
	}
	if containsBody(bodies, "unknown function") {
		t.Errorf("JW0055 must not inherit JW0080's annotations: %v", bodies)
	}
}

func TestAWhereAndFilter(t *testing.T) {
	s := newSession(t)
	loadFigure2(t, s)

	// AWHERE: only tuples having a RegulonDB lineage annotation pass.
	res := mustExec(t, s, `SELECT GID FROM DB1_Gene ANNOTATION(GAnnotation)
		AWHERE ANN.VALUE LIKE '%RegulonDB%' ORDER BY GID`)
	if len(res.Rows) != 3 {
		t.Fatalf("AWHERE rows = %d, want 3", len(res.Rows))
	}
	// FILTER: all tuples pass but only GenoBase annotations survive.
	res = mustExec(t, s, `SELECT GSequence FROM DB2_Gene ANNOTATION(GAnnotation)
		FILTER ANN.VALUE LIKE '%GenoBase%'`)
	if len(res.Rows) != 5 {
		t.Fatalf("FILTER must keep all tuples, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, b := range annBodies(r) {
			if !strings.Contains(b, "GenoBase") {
				t.Errorf("FILTER kept annotation %q", b)
			}
		}
	}
	// AWHERE on author.
	res = mustExec(t, s, `SELECT GID FROM DB1_Gene ANNOTATION(GAnnotation) AWHERE ANN.AUTHOR = 'alice'`)
	if len(res.Rows) == 0 {
		t.Error("AWHERE on author returned nothing")
	}
	// AHAVING over grouped annotations.
	res = mustExec(t, s, `SELECT GName FROM DB1_Gene ANNOTATION(GAnnotation)
		GROUP BY GName AHAVING ANN.VALUE LIKE '%methyltransferase%'`)
	if len(res.Rows) != 1 || res.Rows[0].Values[0].Text() != "mraW" {
		t.Errorf("AHAVING rows = %v", res.Rows)
	}
}

func TestArchiveRestoreStatements(t *testing.T) {
	s := newSession(t)
	loadFigure2(t, s)
	// Archive B5 ("unknown function"): it stops propagating.
	res := mustExec(t, s, `ARCHIVE ANNOTATION FROM DB2_Gene.GAnnotation
		ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')`)
	if res.Affected == 0 {
		t.Fatal("nothing archived")
	}
	q := mustExec(t, s, "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
	if containsBody(annBodies(q.Rows[0]), "unknown function") {
		t.Error("archived annotation still propagates")
	}
	// Restore them.
	mustExec(t, s, `RESTORE ANNOTATION FROM DB2_Gene.GAnnotation
		ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')`)
	q = mustExec(t, s, "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
	if !containsBody(annBodies(q.Rows[0]), "unknown function") {
		t.Error("restored annotation does not propagate")
	}
}

func TestContentApprovalStatements(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)")
	mustExec(t, s, "START CONTENT APPROVAL ON Gene APPROVED BY labadmin")
	mustExec(t, s, "INSERT INTO Gene VALUES ('JW0080', 'ATG')")
	mustExec(t, s, "UPDATE Gene SET GSequence = 'ATGCCC' WHERE GID = 'JW0080'")

	pending := mustExec(t, s, "SHOW PENDING OPERATIONS FOR Gene")
	if len(pending.Rows) != 2 {
		t.Fatalf("pending = %d", len(pending.Rows))
	}
	if !strings.Contains(pending.Rows[1].Values[5].Text(), "UPDATE Gene SET") {
		t.Errorf("inverse statement = %q", pending.Rows[1].Values[5].Text())
	}

	// The lab administrator approves the insert and disapproves the update.
	admin := &Session{Eng: s.Eng, Ann: s.Ann, Dep: s.Dep, Auth: s.Auth, User: "labadmin"}
	insertID := pending.Rows[0].Values[0].Int()
	updateID := pending.Rows[1].Values[0].Int()
	if _, err := admin.Exec("APPROVE OPERATION " + itoa(insertID)); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec("DISAPPROVE OPERATION " + itoa(updateID)); err != nil {
		t.Fatal(err)
	}
	// The disapproved update was rolled back.
	q := mustExec(t, s, "SELECT GSequence FROM Gene WHERE GID = 'JW0080'")
	if q.Rows[0].Values[0].Text() != "ATG" {
		t.Errorf("sequence after disapproval = %q", q.Rows[0].Values[0].Text())
	}
	// A non-approver cannot decide.
	mallory := &Session{Eng: s.Eng, Ann: s.Ann, Auth: s.Auth, User: "mallory"}
	mustExec(t, s, "INSERT INTO Gene VALUES ('JW0090', 'GGG')")
	pend := s.Auth.Pending("Gene")
	if _, err := mallory.Exec("APPROVE OPERATION " + itoa(pend[len(pend)-1].ID)); !errors.Is(err, authz.ErrNotApprover) {
		t.Errorf("non-approver approve: %v", err)
	}
	mustExec(t, s, "STOP CONTENT APPROVAL ON Gene")
	mustExec(t, s, "INSERT INTO Gene VALUES ('JW0100', 'TTT')")
	if n := len(s.Auth.Pending("Gene")); n != 1 {
		t.Errorf("pending after stop = %d", n)
	}
}

func TestGrantRevokeEnforcement(t *testing.T) {
	s := newSession(t)
	s.EnforceAuth = true
	s.Auth.MakeAdmin("alice")
	mustExec(t, s, "CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)")
	mustExec(t, s, "INSERT INTO Gene VALUES ('JW0080', 'ATG')")
	mustExec(t, s, "GRANT SELECT ON Gene TO bob")

	bob := &Session{Eng: s.Eng, Ann: s.Ann, Auth: s.Auth, User: "bob", EnforceAuth: true}
	if _, err := bob.Exec("SELECT * FROM Gene"); err != nil {
		t.Errorf("granted select: %v", err)
	}
	if _, err := bob.Exec("INSERT INTO Gene VALUES ('JW0090', 'C')"); !errors.Is(err, authz.ErrPermissionDenied) {
		t.Errorf("ungranted insert: %v", err)
	}
	if _, err := bob.Exec("DELETE FROM Gene"); !errors.Is(err, authz.ErrPermissionDenied) {
		t.Errorf("ungranted delete: %v", err)
	}
	mustExec(t, s, "REVOKE SELECT ON Gene FROM bob")
	if _, err := bob.Exec("SELECT * FROM Gene"); !errors.Is(err, authz.ErrPermissionDenied) {
		t.Errorf("revoked select: %v", err)
	}
}

func TestDependencyIntegrationOutdatedAnnotations(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)")
	mustExec(t, s, "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, PFunction TEXT)")
	mustExec(t, s, "INSERT INTO Gene VALUES ('JW0080', 'ATGATG')")
	mustExec(t, s, "INSERT INTO Protein VALUES ('pmraW', 'JW0080', 'MKV', 'Cell wall formation')")
	ptbl, _ := s.Eng.Table("Protein")
	ptbl.CreateIndex("GID")

	// Rule 2 only: PSequence -> PFunction via a non-executable lab experiment,
	// plus Rule 1 Gene -> Protein.PSequence marked non-executable so both
	// cascade steps are visible as outdated marks.
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Gene", Column: "GSequence"}},
		Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PSequence"}},
		Proc:    dependency.Procedure{Name: "Prediction tool P", Executable: false},
		Link:    &dependency.Link{SourceColumn: "GID", TargetColumn: "GID"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dep.AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Protein", Column: "PSequence"}},
		Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PFunction"}},
		Proc:    dependency.Procedure{Name: "Lab experiment", Executable: false},
	}); err != nil {
		t.Fatal(err)
	}

	// An A-SQL UPDATE triggers the cascade.
	mustExec(t, s, "UPDATE Gene SET GSequence = 'CCCGGG' WHERE GID = 'JW0080'")
	if !s.Dep.IsOutdated("Protein", 1, "PSequence") || !s.Dep.IsOutdated("Protein", 1, "PFunction") {
		t.Fatal("cascade did not mark protein cells outdated")
	}
	// Querying the protein propagates OUTDATED warnings as annotations.
	res := mustExec(t, s, "SELECT PSequence, PFunction FROM Protein")
	bodies := annBodies(res.Rows[0])
	found := 0
	for _, b := range bodies {
		if strings.Contains(b, "OUTDATED") {
			found++
		}
	}
	if found < 2 {
		t.Errorf("outdated annotations = %v", bodies)
	}
}

func TestSetOperationsUnionExcept(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE A (x INT)")
	mustExec(t, s, "CREATE TABLE B (x INT)")
	mustExec(t, s, "INSERT INTO A VALUES (1), (2), (3)")
	mustExec(t, s, "INSERT INTO B VALUES (2), (3), (4)")
	union := mustExec(t, s, "SELECT x FROM A UNION SELECT x FROM B ORDER BY x")
	if len(union.Rows) != 4 {
		t.Errorf("union = %d rows", len(union.Rows))
	}
	except := mustExec(t, s, "SELECT x FROM A EXCEPT SELECT x FROM B")
	if len(except.Rows) != 1 || except.Rows[0].Values[0].Int() != 1 {
		t.Errorf("except = %v", except.Rows)
	}
	distinct := mustExec(t, s, "SELECT DISTINCT x FROM A UNION SELECT x FROM A")
	if len(distinct.Rows) != 3 {
		t.Errorf("distinct union = %d", len(distinct.Rows))
	}
}

func TestJoinTwoTables(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE Gene (GID TEXT, GName TEXT)")
	mustExec(t, s, "CREATE TABLE Protein (PName TEXT, GID TEXT)")
	mustExec(t, s, "INSERT INTO Gene VALUES ('g1', 'mraW'), ('g2', 'ftsI')")
	mustExec(t, s, "INSERT INTO Protein VALUES ('p1', 'g1'), ('p2', 'g2'), ('p3', 'g1')")
	res := mustExec(t, s, `SELECT G.GName, P.PName FROM Gene G, Protein P WHERE G.GID = P.GID ORDER BY PName`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if res.Rows[0].Values[0].Text() != "mraW" || res.Rows[0].Values[1].Text() != "p1" {
		t.Errorf("first join row = %v", res.Rows[0].Values)
	}
	// Ambiguous column error.
	if _, err := s.Exec("SELECT GID FROM Gene G, Protein P"); !errors.Is(err, ErrAmbiguousColumn) {
		t.Errorf("ambiguous column: %v", err)
	}
	// Unknown column error.
	if _, err := s.Exec("SELECT Nope FROM Gene"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown column: %v", err)
	}
}

func TestInsertWithColumnListAndNulls(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE T (a INT, b TEXT, c FLOAT)")
	mustExec(t, s, "INSERT INTO T (b, a) VALUES ('x', 1)")
	res := mustExec(t, s, "SELECT a, b, c FROM T")
	if res.Rows[0].Values[0].Int() != 1 || res.Rows[0].Values[1].Text() != "x" || !res.Rows[0].Values[2].IsNull() {
		t.Errorf("row = %v", res.Rows[0].Values)
	}
	res = mustExec(t, s, "SELECT a FROM T WHERE c IS NULL")
	if len(res.Rows) != 1 {
		t.Error("IS NULL failed")
	}
	res = mustExec(t, s, "SELECT a FROM T WHERE c IS NOT NULL")
	if len(res.Rows) != 0 {
		t.Error("IS NOT NULL failed")
	}
	if _, err := s.Exec("INSERT INTO T (a) VALUES (1, 2)"); err == nil {
		t.Error("column/value mismatch should fail")
	}
	if _, err := s.Exec("INSERT INTO T VALUES (1)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := s.Exec("INSERT INTO T (zzz) VALUES (1)"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%Regulon%", "obtained from RegulonDB", true},
		{"Regulon%", "obtained from RegulonDB", false},
		{"obtained%", "obtained from RegulonDB", true},
		{"%DB", "obtained from RegulonDB", true},
		{"_bc", "abc", true},
		{"_bc", "bc", false},
		{"a%c", "abbbc", true},
		{"a%c", "ab", false},
		{"", "", true},
		{"%%", "anything", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func annBodies(r ARow) []string {
	var out []string
	for _, a := range r.AnnotationsFlat() {
		out = append(out, a.PlainBody())
	}
	return out
}

func containsBody(bodies []string, sub string) bool {
	for _, b := range bodies {
		if strings.Contains(b, sub) {
			return true
		}
	}
	return false
}

func itoa(n int64) string {
	return strings.TrimSpace(value.NewInt(n).String())
}

// annotatedRows returns, per GID, how many annotations of table Curation the
// row's Score cell carries.
func annotatedRows(t *testing.T, s *Session) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, r := range mustExec(t, s, `SELECT GID, Score FROM Gene ANNOTATION(Curation)`).Rows {
		for _, a := range r.Anns[1] {
			if a.AnnTable == "Curation" { // not the fixture's outdated marks
				out[r.Values[0].Text()]++
			}
		}
	}
	return out
}

// TestOnSelectRowSelecting pins the grammar of the ON (SELECT ...) of the
// annotation commands: the select names base-table cells, so every clause
// that would change WHICH rows are named is rejected (the parent commit
// silently ignored them and annotated rows the statement did not name),
// while the shapes docs/SQL.md documents keep working.
func TestOnSelectRowSelecting(t *testing.T) {
	s := newSession(t)
	buildJoinFixture(t, s, 10, 10)
	mustExec(t, s, `ARCHIVE ANNOTATION FROM Gene.Curation ON (SELECT * FROM Gene)`)
	mustExec(t, s, `DROP ANNOTATION TABLE Curation ON Gene`)
	mustExec(t, s, `CREATE ANNOTATION TABLE Curation ON Gene`)

	rejected := []struct{ on, clause string }{
		{`SELECT Score FROM Gene LIMIT 1`, "LIMIT"},
		{`SELECT DISTINCT Score FROM Gene`, "DISTINCT"},
		{`SELECT Score FROM Gene WHERE GID = 'G001' UNION SELECT Score FROM Gene WHERE GID = 'G002'`, "set operation"},
		{`SELECT Score FROM Gene INTERSECT SELECT Score FROM Gene`, "set operation"},
		{`SELECT Score FROM Gene EXCEPT SELECT Score FROM Gene WHERE GID = 'G001'`, "set operation"},
		{`SELECT GName FROM Gene GROUP BY GName`, "GROUP BY"},
		{`SELECT COUNT(*) FROM Gene`, "aggregate"},
		{`SELECT GName FROM Gene ANNOTATION(Curation) GROUP BY GName HAVING COUNT(*) > 1 AHAVING ANN.AUTHOR = 'alice'`, "HAVING"},
	}
	for _, tc := range rejected {
		for _, cmd := range []string{
			`ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>x</Annotation>' ON (%s)`,
			`ARCHIVE ANNOTATION FROM Gene.Curation ON (%s)`,
			`RESTORE ANNOTATION FROM Gene.Curation ON (%s)`,
		} {
			sql := strings.Replace(cmd, "%s", tc.on, 1)
			_, err := s.Exec(sql)
			if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), tc.clause) {
				t.Errorf("%s\n  err = %v, want ErrUnsupported naming %q", sql, err, tc.clause)
			}
		}
	}
	if got := annotatedRows(t, s); len(got) != 0 {
		t.Fatalf("rejected ON-selects annotated rows: %v", got)
	}

	// Accepted: column list and *, WHERE, ANNOTATION + AWHERE, a join (only
	// the target table's origins count), and ORDER BY / FILTER, which cannot
	// change a set of cells.
	mustExec(t, s, `ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>first</Annotation>'
		ON (SELECT Score FROM Gene WHERE GID = 'G001' OR GID = 'G002' ORDER BY Score DESC)`)
	mustExec(t, s, `ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>second</Annotation>'
		ON (SELECT * FROM Gene ANNOTATION(Curation) AWHERE ANN.VALUE LIKE '%first%' FILTER ANN.AUTHOR = 'nobody')`)
	mustExec(t, s, `ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>joined</Annotation>'
		ON (SELECT g.Score, p.PLen FROM Gene g, Protein p WHERE g.GID = p.GID AND g.GID = 'G003')`)
	want := map[string]int{"G001": 2, "G002": 2}
	if res := mustExec(t, s, `SELECT PID FROM Protein WHERE GID = 'G003'`); len(res.Rows) > 0 {
		want["G003"] = 1
	}
	if got := annotatedRows(t, s); !reflect.DeepEqual(got, want) {
		t.Errorf("annotated Score cells = %v, want %v", got, want)
	}
	res := mustExec(t, s, `ARCHIVE ANNOTATION FROM Gene.Curation ON (SELECT Score FROM Gene WHERE GID = 'G001')`)
	if res.Affected != 2 {
		t.Errorf("ARCHIVE over one row archived %d annotation(s), want 2", res.Affected)
	}
	res = mustExec(t, s, `RESTORE ANNOTATION FROM Gene.Curation ON (SELECT * FROM Gene ORDER BY GID)`)
	if res.Affected != 2 {
		t.Errorf("RESTORE over every row restored %d annotation(s), want 2", res.Affected)
	}
}

// TestUpdateSetValidation: an unknown SET target fails the statement with
// catalog.ErrColumnNotFound whether or not the WHERE clause matches a row,
// bare and prepared, and nothing is written. (The parent commit resolved the
// SET list per matched row and reported "0 row(s) updated" on no match.)
func TestUpdateSetValidation(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE G (ID INT NOT NULL PRIMARY KEY, Score INT)`)
	mustExec(t, s, `INSERT INTO G VALUES (1, 10), (2, 20)`)
	for _, id := range []int{999, 1} {
		_, err := s.Exec(fmt.Sprintf(`UPDATE G SET Score = 0, Nope = 1 WHERE ID = %d`, id))
		if !errors.Is(err, catalog.ErrColumnNotFound) {
			t.Errorf("bare UPDATE with ID = %d: err = %v, want catalog.ErrColumnNotFound", id, err)
		}
		st, err := s.Prepare(`UPDATE G SET Score = 0, Nope = ? WHERE ID = ?`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Exec(1, id); !errors.Is(err, catalog.ErrColumnNotFound) {
			t.Errorf("prepared UPDATE with ID = %d: err = %v, want catalog.ErrColumnNotFound", id, err)
		}
	}
	if got := fingerprint(mustExec(t, s, `SELECT * FROM G`)); got != "ID,Score\nINT:1|INT:10\nINT:2|INT:20\n" {
		t.Errorf("a rejected UPDATE wrote:\n%s", got)
	}
}
