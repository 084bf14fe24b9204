package catalog

import (
	"testing"

	"bdbms/internal/value"
)

func geneSchema() *Schema {
	return &Schema{
		Name: "DB1_Gene",
		Columns: []Column{
			{Name: "GID", Type: value.Text, NotNull: true},
			{Name: "GName", Type: value.Text},
			{Name: "GSequence", Type: value.Sequence},
		},
		PrimaryKey: "GID",
	}
}

func TestCreateAndLookupTable(t *testing.T) {
	c := New()
	if err := c.CreateTable(geneSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(geneSchema()); err == nil {
		t.Error("duplicate create should fail")
	}
	s, err := c.Table("db1_gene") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "DB1_Gene" {
		t.Errorf("schema name %q", s.Name)
	}
	if !c.HasTable("DB1_GENE") || c.HasTable("nope") {
		t.Error("HasTable wrong")
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table should fail")
	}
	if len(c.Tables()) != 1 {
		t.Error("Tables() count wrong")
	}
}

func TestCreateTableValidation(t *testing.T) {
	c := New()
	if err := c.CreateTable(nil); err == nil {
		t.Error("nil schema should fail")
	}
	if err := c.CreateTable(&Schema{Name: "t"}); err == nil {
		t.Error("no columns should fail")
	}
	if err := c.CreateTable(&Schema{Name: "t", Columns: []Column{{Name: "a"}, {Name: "A"}}}); err == nil {
		t.Error("duplicate columns should fail")
	}
	if err := c.CreateTable(&Schema{Name: "t", Columns: []Column{{Name: "a"}}, PrimaryKey: "zz"}); err == nil {
		t.Error("unknown primary key should fail")
	}
}

func TestDropTable(t *testing.T) {
	c := New()
	c.CreateTable(geneSchema())
	c.CreateAnnotationTable(&AnnotationTable{Name: "GAnnotation", UserTable: "DB1_Gene"})
	if err := c.DropTable("DB1_Gene"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("DB1_Gene"); err == nil {
		t.Error("dropping missing table should fail")
	}
	if len(c.AnnotationTables("DB1_Gene")) != 0 {
		t.Error("annotation tables should be dropped with the table")
	}
}

func TestColumnIndexAndNames(t *testing.T) {
	s := geneSchema()
	if s.ColumnIndex("gsequence") != 2 {
		t.Error("case-insensitive column lookup failed")
	}
	if s.ColumnIndex("absent") != -1 {
		t.Error("absent column should be -1")
	}
	names := s.ColumnNames()
	if len(names) != 3 || names[0] != "GID" {
		t.Errorf("ColumnNames = %v", names)
	}
}

func TestValidateRow(t *testing.T) {
	s := geneSchema()
	good := value.Row{value.NewText("JW0080"), value.NewText("mraW"), value.NewSequence("ATG")}
	if err := s.ValidateRow(good); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateRow(value.Row{value.NewText("x")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := s.ValidateRow(value.Row{value.NewNull(), value.NewText("a"), value.NewText("b")}); err == nil {
		t.Error("NULL in NOT NULL column should fail")
	}
	if err := s.ValidateRow(value.Row{value.NewInt(3), value.NewText("a"), value.NewText("b")}); err == nil {
		t.Error("type mismatch should fail")
	}
	// Text is assignable to Sequence columns.
	mixed := value.Row{value.NewText("JW1"), value.NewNull(), value.NewText("ATG")}
	if err := s.ValidateRow(mixed); err != nil {
		t.Errorf("text->sequence assignability: %v", err)
	}
}

func TestCoerceRow(t *testing.T) {
	s := &Schema{Name: "m", Columns: []Column{
		{Name: "id", Type: value.Int},
		{Name: "score", Type: value.Float},
		{Name: "seq", Type: value.Sequence},
	}}
	row, err := s.CoerceRow(value.Row{value.NewText("7"), value.NewInt(3), value.NewText("ATG")})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Type() != value.Int || row[0].Int() != 7 {
		t.Errorf("coerced id = %v", row[0])
	}
	if row[1].Type() != value.Float || row[1].Float() != 3 {
		t.Errorf("coerced score = %v", row[1])
	}
	if row[2].Type() != value.Sequence {
		t.Errorf("coerced seq type = %v", row[2].Type())
	}
	if _, err := s.CoerceRow(value.Row{value.NewText("x"), value.NewInt(1), value.NewText("A")}); err == nil {
		t.Error("uncoercible value should fail")
	}
	if _, err := s.CoerceRow(value.Row{value.NewInt(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestAnnotationTables(t *testing.T) {
	c := New()
	c.CreateTable(geneSchema())
	def := &AnnotationTable{Name: "GAnnotation", UserTable: "DB1_Gene", Category: "comment"}
	if err := c.CreateAnnotationTable(def); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateAnnotationTable(def); err == nil {
		t.Error("duplicate annotation table should fail")
	}
	if err := c.CreateAnnotationTable(&AnnotationTable{Name: "x", UserTable: "missing"}); err == nil {
		t.Error("annotation table on missing user table should fail")
	}
	if err := c.CreateAnnotationTable(&AnnotationTable{Name: "", UserTable: ""}); err == nil {
		t.Error("incomplete definition should fail")
	}
	prov := &AnnotationTable{Name: "GProvenance", UserTable: "DB1_Gene", Category: "provenance", SystemManaged: true}
	if err := c.CreateAnnotationTable(prov); err != nil {
		t.Fatal(err)
	}
	got, err := c.AnnotationTable("db1_gene", "gannotation")
	if err != nil || got.Category != "comment" {
		t.Fatalf("lookup: %v %v", got, err)
	}
	all := c.AnnotationTables("DB1_Gene")
	if len(all) != 2 || all[0].Name != "GAnnotation" {
		t.Errorf("AnnotationTables = %v", all)
	}
	if err := c.DropAnnotationTable("DB1_Gene", "GAnnotation"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropAnnotationTable("DB1_Gene", "GAnnotation"); err == nil {
		t.Error("double drop should fail")
	}
	if err := c.DropAnnotationTable("missing", "x"); err == nil {
		t.Error("drop on missing user table should fail")
	}
	if _, err := c.AnnotationTable("DB1_Gene", "GAnnotation"); err == nil {
		t.Error("dropped annotation table still visible")
	}
	if _, err := c.AnnotationTable("missing", "x"); err == nil {
		t.Error("lookup on missing user table should fail")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	c := New()
	c.CreateTable(geneSchema())
	c.CreateTable(&Schema{Name: "Protein", Columns: []Column{
		{Name: "PName", Type: value.Text},
		{Name: "GID", Type: value.Text},
		{Name: "PSequence", Type: value.Sequence},
		{Name: "PFunction", Type: value.Text},
	}})
	c.CreateAnnotationTable(&AnnotationTable{Name: "GAnnotation", UserTable: "DB1_Gene", Category: "comment"})
	c.CreateAnnotationTable(&AnnotationTable{Name: "GProvenance", UserTable: "DB1_Gene", Category: "provenance", SystemManaged: true})

	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(loaded.Tables()) != 2 {
		t.Errorf("loaded %d tables", len(loaded.Tables()))
	}
	ann := loaded.AnnotationTables("DB1_Gene")
	if len(ann) != 2 {
		t.Errorf("loaded %d annotation tables", len(ann))
	}
	got, err := loaded.AnnotationTable("DB1_Gene", "GProvenance")
	if err != nil || !got.SystemManaged {
		t.Errorf("provenance table lost flags: %+v %v", got, err)
	}
	if err := New().UnmarshalJSON([]byte("{")); err == nil {
		t.Error("decoding a truncated catalog should fail")
	}
}
