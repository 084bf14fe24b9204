package main

import (
	"context"
	"fmt"
	"time"

	"bdbms"
	"bdbms/bench/gen"
	"bdbms/bench/trace"
)

// analytics is the fits-in-cache, read-only workload: one goroutine runs a
// report round of five prepared queries over the E10/E11 shapes. Nothing
// writes during the window, so the columnar mirror is built once in the
// warm-up and never invalidated.
type analytics struct {
	e       *env
	a       *gen.Analytics
	tailLen int
	live    int64 // user bytes of live rows, every table
	written int64
}

const (
	eventRows     = 30000
	factRows      = 20000
	analyticsPool = 32768
	spillBudget   = 64 << 10
	topK          = 10
)

func newAnalytics(e *env) *analytics {
	return &analytics{e: e, a: gen.NewAnalytics(e.seed, e.scaled(eventRows, 2000), e.scaled(factRows, 2000)), tailLen: e.scaled(gen.TailLen, 200)}
}

func (w *analytics) options(path string) bdbms.Options {
	return bdbms.Options{DataFile: path, PoolSize: analyticsPool}
}
func (w *analytics) rows() int                 { return len(w.a.Score) + w.a.FactRows + gen.Dim1Rows + gen.Dim2Rows }
func (w *analytics) tailPercentile() float64   { return 0.90 }
func (w *analytics) tailRecords() int          { return w.tailLen }
func (w *analytics) mainTable() string         { return "Events" }
func (w *analytics) statements() []string      { return reportSQL[:] }
func (w *analytics) userBytes() (int64, int64) { return w.live, w.written }

// eventBytes is the user size of an Events row: two INTs and a 4-byte group.
const eventBytes = 8 + 4 + 8

func (w *analytics) load(db *bdbms.DB) error {
	for _, ddl := range []string{
		`CREATE TABLE Events (ID INT NOT NULL PRIMARY KEY, Grp TEXT, Score INT)`,
		`CREATE TABLE Fact (FID INT NOT NULL PRIMARY KEY, D1 TEXT, D2 TEXT, V INT)`,
		`CREATE TABLE Dim1 (D1ID INT NOT NULL PRIMARY KEY, Cat TEXT, Name TEXT)`,
		`CREATE TABLE Dim2 (D2ID TEXT NOT NULL PRIMARY KEY, Tag TEXT)`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	s := db.Session("admin")
	a := w.a
	var bytes int64
	err := loadRows(s, `INSERT INTO Events VALUES (?, ?, ?)`, a.EventRows, func(i int) []any {
		bytes += eventBytes
		return []any{i, gen.Grp(i), a.EventScore(i, 0)}
	})
	if err == nil {
		err = loadRows(s, `INSERT INTO Fact VALUES (?, ?, ?, ?)`, a.FactRows, func(i int) []any {
			bytes += 8 + 4 + 4 + 8
			return []any{i, gen.FactD1(i), gen.FactD2(i), a.FactV(i)}
		})
	}
	if err == nil {
		err = loadRows(s, `INSERT INTO Dim1 VALUES (?, ?, ?)`, gen.Dim1Rows, func(i int) []any {
			name := fmt.Sprintf("attr%d", i)
			bytes += int64(8 + 4 + len(name))
			return []any{i, gen.FactD1(i), name}
		})
	}
	if err == nil {
		err = loadRows(s, `INSERT INTO Dim2 VALUES (?, ?)`, gen.Dim2Rows, func(i int) []any {
			tag := "cold"
			if i == a.HotD2 {
				tag = "hot"
			}
			bytes += int64(4 + len(tag))
			return []any{gen.FactD2(i), tag}
		})
	}
	w.live, w.written = bytes, bytes
	return err
}

// loadRows inserts n generated rows through one prepared statement in
// transactions of loadBatch rows.
func loadRows(s *bdbms.Session, sql string, n int, row func(i int) []any) error {
	ins, err := s.Prepare(sql)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for lo := 0; lo < n; lo += loadBatch {
		tx, err := s.Begin(ctx)
		if err != nil {
			return err
		}
		for i := lo; i < min(lo+loadBatch, n); i++ {
			if _, err := ins.Exec(row(i)...); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// tail alternates UPDATE Events SET Score and INSERT INTO Events, so that
// recovery redoes both kinds and the window's oracles cover rewritten rows.
func (w *analytics) tail(db *bdbms.DB) error {
	s := db.Session("admin")
	upd, err := s.Prepare(`UPDATE Events SET Score = ? WHERE ID = ?`)
	if err != nil {
		return err
	}
	ins, err := s.Prepare(`INSERT INTO Events VALUES (?, ?, ?)`)
	if err != nil {
		return err
	}
	ids := gen.UniformKeys(w.e.seed, w.a.EventRows, w.tailLen)
	ctx := context.Background()
	for lo := 0; lo < w.tailLen; lo += tailBatch {
		tx, err := s.Begin(ctx)
		if err != nil {
			return err
		}
		for i := lo; i < min(lo+tailBatch, w.tailLen); i++ {
			ver := i + 1
			if i%2 == 0 {
				id := int(ids[i])
				w.a.Update(id, ver)
				_, err = upd.Exec(w.a.Score[id], id)
			} else {
				id := w.a.Append(ver)
				w.live += eventBytes
				_, err = ins.Exec(id, gen.Grp(id), w.a.Score[id])
			}
			if err != nil {
				tx.Rollback()
				return err
			}
			w.written += eventBytes
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func (w *analytics) check(db *bdbms.DB, full bool) error {
	for name, want := range map[string]int{"Events": len(w.a.Score), "Fact": w.a.FactRows, "Dim1": gen.Dim1Rows, "Dim2": gen.Dim2Rows} {
		tbl, err := db.Storage().Table(name)
		if err != nil {
			return err
		}
		if got := tbl.RowCount(); got != want {
			return fmt.Errorf("%s has %d rows, oracle %d", name, got, want)
		}
	}
	if !full {
		return nil
	}
	res, err := db.Exec(`SELECT COUNT(*), SUM(Score) FROM Events`)
	if err != nil {
		return err
	}
	want := w.a.Q1(gen.ScoreMod)
	if n, sum := res.Rows[0].Values[0].Int(), res.Rows[0].Values[1].Int(); n != want.Count || sum != want.Sum {
		return fmt.Errorf("Events COUNT, SUM(Score) = %d, %d, oracle %d, %d", n, sum, want.Count, want.Sum)
	}
	return nil
}

// The report round. Q5 is Q2 on a session whose operators may keep only
// spillBudget bytes resident, so it spills.
var reportSQL = [5]string{
	`SELECT COUNT(*), SUM(Score) FROM Events WHERE Score < ?`,
	`SELECT Grp, COUNT(*), SUM(Score) FROM Events GROUP BY Grp`,
	`SELECT COUNT(*), SUM(f.V) FROM Fact f, Dim1 d1, Dim2 d2 WHERE f.D1 = d1.Cat AND f.D2 = d2.D2ID AND d2.Tag = 'hot'`,
	`SELECT ID, Score FROM Events ORDER BY Score DESC LIMIT 10`,
	`SELECT Grp, COUNT(*), SUM(Score) FROM Events GROUP BY Grp`,
}

var reportNames = [5]string{"q1_filter_agg", "q2_groupby", "q3_join3", "q4_topn", "q5_spill_groupby"}

type analyticsRunner struct {
	w     *analytics
	db    *bdbms.DB
	stmts [5]*bdbms.Stmt
	limit int64
	q1    gen.Agg
	q2    map[string]gen.Agg
	q3    gen.Agg
	q4    []int64
}

func (w *analytics) start(db *bdbms.DB, _ string) (runner, error) {
	r := &analyticsRunner{w: w, db: db, limit: gen.ScoreMod / 2}
	plain, spilling := db.Session("admin"), db.Session("admin")
	spilling.SpillBudget = spillBudget
	for i, sql := range reportSQL {
		s := plain
		if i == 4 {
			s = spilling
		}
		st, err := s.Prepare(sql)
		if err != nil {
			return nil, err
		}
		r.stmts[i] = st
	}
	r.q1, r.q2, r.q3, r.q4 = w.a.Q1(r.limit), w.a.Q2(), w.a.Q3(), w.a.Q4(topK)
	return r, nil
}

func (r *analyticsRunner) close() {}

func (r *analyticsRunner) run(d time.Duration, rec *trace.Recorder) *sample {
	s := newSample()
	t := r.w.e.tally
	start := time.Now()
	now := start
	for now.Sub(start) < d {
		rec.Begin("analytics.round")
		failed := false
		mark := now
		for q := range r.stmts {
			rec.Begin(reportNames[q])
			err := r.query(q)
			rec.End()
			end := time.Now()
			s.second[reportNames[q]] = append(s.second[reportNames[q]], int64(end.Sub(mark)))
			mark = end
			if err != nil {
				t.fail(fmt.Errorf("%s: %w", reportNames[q], err))
				failed = true
			}
		}
		rec.End()
		if !failed {
			t.ok()
			s.primary, s.ends = append(s.primary, int64(mark.Sub(now))), append(s.ends, int64(mark.Sub(start)))
		}
		now = mark
	}
	s.elapsed = now.Sub(start)
	return s
}

// query runs report query q, drains it and checks every row it returns
// against the oracle.
func (r *analyticsRunner) query(q int) error {
	var args []any
	if q == 0 {
		args = []any{r.limit}
	}
	rows, err := r.stmts[q].Query(context.Background(), args...)
	if err != nil {
		return err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		v := rows.Row().Values
		var got, want gen.Agg
		switch q {
		case 0, 2:
			got, want = gen.Agg{Count: v[0].Int(), Sum: v[1].Int()}, r.q1
			if q == 2 {
				want = r.q3
			}
		case 1, 4:
			got, want = gen.Agg{Count: v[1].Int(), Sum: v[2].Int()}, r.q2[v[0].Text()]
		case 3:
			got.Sum, want.Sum = v[1].Int(), r.q4[n]
		}
		if got != want {
			return fmt.Errorf("row %d: got %+v, oracle %+v", n, got, want)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if want := [5]int{1, len(r.q2), 1, topK, len(r.q2)}[q]; n != want {
		return fmt.Errorf("%d rows, oracle %d", n, want)
	}
	return nil
}

func (r *analyticsRunner) verify() error { return r.w.check(r.db, true) }
