package main

import (
	"context"
	"fmt"

	"bdbms"
	"bdbms/bench/gen"
	"bdbms/bench/layers"
)

// geneData is the Gene table three of the workloads share: its generator,
// its oracle, and the features a workload switched on.
type geneData struct {
	model    *gen.GeneModel
	loaded   []gen.GeneRow // load-time rows, generated before set-up is timed
	tailMuts []gen.Mut
	annTabs  []string // annotation tables; set-up spreads loadAnns over them
	loadAnns int      // set-up annotations per table
	rule     bool     // register the Seq -> Score dependency rule
	approval bool     // START CONTENT APPROVAL on Name
}

const (
	loadBatch = 5000 // rows per set-up transaction
	tailBatch = 500  // mutations per tail transaction
	annBody   = `'<Annotation>curated</Annotation>'`

	createGeneSQL  = `CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, Name TEXT, Family TEXT, Score INT, Seq SEQUENCE)`
	insertGeneSQL  = `INSERT INTO Gene VALUES (?, ?, ?, ?, ?)`
	updateScoreSQL = `UPDATE Gene SET Score = ? WHERE GID = ?`
)

func newGeneData(e *env, baseRows, loadAnns int, annTabs []string, rule, approval bool) *geneData {
	g := gen.NewGenes(e.seed)
	d := &geneData{model: gen.NewGeneModel(g, baseRows), annTabs: annTabs, loadAnns: loadAnns, rule: rule, approval: approval}
	d.loaded = make([]gen.GeneRow, baseRows)
	for gid := range d.loaded {
		d.loaded[gid] = g.Row(gid)
	}
	for range annTabs {
		d.model.LoadAnnotations(loadAnns)
	}
	d.tailMuts = gen.Tail(e.seed, baseRows, e.scaled(gen.TailLen, 200))
	return d
}

func (d *geneData) load(db *bdbms.DB) error {
	ctx := context.Background()
	for _, ddl := range []string{
		createGeneSQL,
		`CREATE INDEX ON Gene (Family)`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	s := db.Session("admin")
	ins, err := s.Prepare(insertGeneSQL)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(d.loaded); lo += loadBatch {
		tx, err := s.Begin(ctx)
		if err != nil {
			return err
		}
		for _, r := range d.loaded[lo:min(lo+loadBatch, len(d.loaded))] {
			if _, err := ins.Exec(r.GID, r.Name, r.Family, r.Score, r.Seq); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	for i, tab := range d.annTabs {
		create := `CREATE ANNOTATION TABLE ` + tab + ` ON Gene`
		if i > 0 {
			create += ` CATEGORY 'provenance'`
		}
		if _, err := db.Exec(create); err != nil {
			return err
		}
		for _, lo := range gen.AnnStarts(len(d.loaded), d.loadAnns) {
			if _, err := s.Exec(addAnnSQL(tab, lo, lo+gen.AnnRegionRows-1)); err != nil {
				return err
			}
		}
	}
	return d.features(db)
}

// addAnnSQL spells the region out: the planner turns a range over literals
// into a B+-tree range scan, but a range over `?` placeholders into a full
// scan, and a curator annotating twenty rows does not scan the table.
func addAnnSQL(tab string, lo, hi int) string {
	return fmt.Sprintf(`ADD ANNOTATION TO Gene.%s VALUE %s ON (SELECT Seq FROM Gene WHERE GID >= %d AND GID <= %d)`, tab, annBody, lo, hi)
}

// features switches on what does not survive a reopen: dependency rules and
// content approval live in memory only.
func (d *geneData) features(db *bdbms.DB) error {
	if d.rule {
		if err := layers.AddSeqScoreRule(db); err != nil {
			return err
		}
	}
	if d.approval {
		if _, err := db.Exec(`START CONTENT APPROVAL ON Gene COLUMNS (Name) APPROVED BY admin`); err != nil {
			return err
		}
	}
	return nil
}

// mutator executes generated mutations on one session: row mutations through
// prepared statements, annotations as literal statements (see addAnnSQL).
type mutator struct {
	sess *bdbms.Session
	stmt [gen.AddAnn]*bdbms.Stmt
}

func (d *geneData) mutator(db *bdbms.DB, user string) (*mutator, error) {
	m := &mutator{sess: db.Session(user)}
	for kind, sql := range map[gen.MutKind]string{
		gen.UpdScore: updateScoreSQL,
		gen.UpdSeq:   `UPDATE Gene SET Seq = ? WHERE GID = ?`,
		gen.UpdName:  `UPDATE Gene SET Name = ? WHERE GID = ?`,
		gen.Insert:   insertGeneSQL,
		gen.Delete:   `DELETE FROM Gene WHERE GID = ?`,
	} {
		st, err := m.sess.Prepare(sql)
		if err != nil {
			return nil, err
		}
		m.stmt[kind] = st
	}
	return m, nil
}

// args returns the bind arguments of a mutation, or for an annotation its
// statement text. Windows call it before they open, so no string is built
// while a window is timed.
func (d *geneData) args(mu gen.Mut) []any {
	g, gid, ver := d.model.G, int(mu.GID), int(mu.Ver)
	switch mu.Kind {
	case gen.UpdScore:
		return []any{g.Score(gid, ver), gid}
	case gen.UpdSeq:
		return []any{g.Seq(gid, ver), gid}
	case gen.UpdName:
		return []any{g.Name(gid, ver), gid}
	case gen.Insert:
		r := g.RowAt(gid, ver)
		return []any{r.GID, r.Name, r.Family, r.Score, r.Seq}
	case gen.Delete:
		return []any{gid}
	default:
		return []any{addAnnSQL(d.annTabs[0], gid, gid+gen.AnnRegionRows-1)}
	}
}

// exec runs one mutation and reports whether it changed what it should.
func (m *mutator) exec(mu gen.Mut, args []any) error {
	if mu.Kind == gen.AddAnn {
		_, err := m.sess.Exec(args[0].(string))
		return err
	}
	res, err := m.stmt[mu.Kind].Exec(args...)
	if err != nil {
		return err
	}
	if res.Affected != 1 {
		return fmt.Errorf("mutation kind %d on GID %d affected %d rows, want 1", mu.Kind, mu.GID, res.Affected)
	}
	return nil
}

func (d *geneData) tail(db *bdbms.DB) error {
	m, err := d.mutator(db, "admin")
	if err != nil {
		return err
	}
	ctx := context.Background()
	for lo := 0; lo < len(d.tailMuts); lo += tailBatch {
		tx, err := m.sess.Begin(ctx)
		if err != nil {
			return err
		}
		for _, mu := range d.tailMuts[lo:min(lo+tailBatch, len(d.tailMuts))] {
			if err := m.exec(mu, d.args(mu)); err != nil {
				tx.Rollback()
				return err
			}
			d.model.Apply(mu, d.rule, d.approval)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func (d *geneData) tailRecords() int  { return len(d.tailMuts) }
func (d *geneData) mainTable() string { return "Gene" }
func (d *geneData) rows() int         { return d.model.Rows }

// statements lists the Gene statement texts, one of each shape.
func (d *geneData) statements() []string {
	return []string{
		readSQL, a1SQL, fmt.Sprintf(a2SQL, 100, 2099), addAnnSQL(d.annTabs[0], 100, 119),
		insertGeneSQL, updateScoreSQL,
		`UPDATE Gene SET Seq = ? WHERE GID = ?`, `UPDATE Gene SET Name = ? WHERE GID = ?`, `DELETE FROM Gene WHERE GID = ?`,
	}
}

func (d *geneData) userBytes() (int64, int64) { return d.model.Live, d.model.Written }

// check compares row, annotation and outdated-cell counts with the oracle,
// and with full also SUM(Score), which reads every row.
func (d *geneData) check(db *bdbms.DB, full bool) error {
	tbl, err := db.Storage().Table("Gene")
	if err != nil {
		return err
	}
	if got := tbl.RowCount(); got != d.model.Rows {
		return fmt.Errorf("Gene has %d rows, oracle %d", got, d.model.Rows)
	}
	if got := db.Annotations().Count("Gene"); got != d.model.Anns {
		return fmt.Errorf("Gene has %d annotations, oracle %d", got, d.model.Anns)
	}
	if got := len(db.Dependencies().OutdatedCells()); got != d.model.Outdated {
		return fmt.Errorf("%d outdated cells, oracle %d", got, d.model.Outdated)
	}
	if !full {
		return nil
	}
	res, err := db.Exec(`SELECT COUNT(*), SUM(Score) FROM Gene`)
	if err != nil {
		return err
	}
	if n, sum := res.Rows[0].Values[0].Int(), res.Rows[0].Values[1].Int(); n != int64(d.model.Rows) || sum != d.model.SumScore {
		return fmt.Errorf("COUNT, SUM(Score) = %d, %d, oracle %d, %d", n, sum, d.model.Rows, d.model.SumScore)
	}
	return nil
}
