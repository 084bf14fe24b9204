package main

import (
	"context"
	"fmt"
	"time"

	"bdbms"
	"bdbms/bench/gen"
	"bdbms/bench/trace"
	"bdbms/internal/server"
	"bdbms/internal/server/client"
)

// oltpWire is the larger-than-cache workload: one closed-loop client over
// loopback TCP doing annotated zipfian point reads on a Gene table some forty
// times the 256-page buffer pool, with every tenth operation a
// read-modify-write transaction.
type oltpWire struct {
	e *env
	*geneData
}

const (
	oltpRows    = 100000
	oltpAnns    = 2000
	oltpKeyRing = 1 << 18 // pre-generated keys; the window cycles through them
	rmwEvery    = 10
)

func newOLTPWire(e *env) *oltpWire {
	return &oltpWire{e: e, geneData: newGeneData(e, e.scaled(oltpRows, 1000), e.scaled(oltpAnns, 20), []string{"Curation"}, false, false)}
}

func (w *oltpWire) options(path string) bdbms.Options { return bdbms.Options{DataFile: path} }
func (w *oltpWire) tailPercentile() float64           { return 0.99 }

const readSQL = `SELECT GID, Name, Score, Seq FROM Gene ANNOTATION(Curation) WHERE GID = ?`

type oltpRunner struct {
	w    *oltpWire
	db   *bdbms.DB
	srv  *server.Server
	done chan error
	conn *client.Conn
	read *client.Stmt
	upd  *client.Stmt
	keys []int32
	pos  int // operations issued so far, over all runs
}

func (w *oltpWire) start(db *bdbms.DB, _ string) (runner, error) {
	r := &oltpRunner{w: w, db: db, keys: gen.ZipfKeys(w.e.seed, w.model.BaseRows(), oltpKeyRing), done: make(chan error, 1)}
	db.SetCredential("bench", "bench")
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	r.srv = srv
	go func() { r.done <- srv.Serve() }()
	if r.conn, err = client.DialTimeout(srv.Addr().String(), "bench", "bench", 10*time.Second); err != nil {
		r.close()
		return nil, err
	}
	if r.read, err = r.conn.Prepare(readSQL); err == nil {
		r.upd, err = r.conn.Prepare(updateScoreSQL)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *oltpRunner) close() {
	if r.conn != nil {
		r.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	<-r.done
}

func (r *oltpRunner) run(d time.Duration, rec *trace.Recorder) *sample {
	s := newSample()
	s.primary, s.ends = make([]int64, 0, 1<<18), make([]int64, 0, 1<<18)
	model, t := r.w.model, r.w.e.tally
	start := time.Now()
	now := start
	for now.Sub(start) < d {
		gid := int(r.keys[r.pos%len(r.keys)])
		r.pos++
		if r.pos%rmwEvery == 0 {
			mu := gen.Mut{Kind: gen.UpdScore, GID: int32(gid), Ver: int32(gen.TailLen + r.pos)}
			score := model.G.Score(gid, int(mu.Ver))
			rec.Begin("oltp.rmw")
			err := r.rmw(score, gid)
			rec.End()
			end := time.Now()
			if err != nil {
				t.fail(err)
			} else {
				t.ok()
				model.Apply(mu, false, false)
				s.second["rmw"] = append(s.second["rmw"], int64(end.Sub(now)))
			}
			now = end
			continue
		}
		rec.Begin("oltp.read")
		err := r.pointRead(rec, gid)
		rec.End()
		end := time.Now()
		if err != nil {
			t.fail(err)
		} else {
			t.ok()
			s.primary, s.ends = append(s.primary, int64(end.Sub(now))), append(s.ends, int64(end.Sub(start)))
		}
		now = end
	}
	s.elapsed = now.Sub(start)
	return s
}

// pointRead executes the prepared read, drains it and checks the row against
// the oracle: the key, the current score and the number of annotations on Seq.
func (r *oltpRunner) pointRead(rec *trace.Recorder, gid int) error {
	rec.Begin("client.query")
	rows, err := r.read.Query(gid)
	rec.End()
	if err != nil {
		return err
	}
	rec.Begin("client.drain")
	n := 0
	for rows.Next() {
		n++
		row, anns := rows.Row(), rows.Annotations()
		if got, score := row[0].Int(), row[2].Int(); got != int64(gid) || score != int64(r.w.model.Score(gid)) {
			err = fmt.Errorf("read GID %d returned GID %d score %d, oracle score %d", gid, got, score, r.w.model.Score(gid))
		} else if want := int(r.w.model.AnnOnSeq[gid]); len(anns[3]) != want {
			err = fmt.Errorf("read GID %d carries %d annotations on Seq, oracle %d", gid, len(anns[3]), want)
		}
	}
	cerr := rows.Close()
	rec.End()
	switch {
	case err != nil:
		return err
	case cerr != nil:
		return cerr
	case n != 1:
		return fmt.Errorf("read GID %d returned %d rows", gid, n)
	}
	return nil
}

func (r *oltpRunner) rmw(score, gid int) error {
	if err := r.conn.Begin(); err != nil {
		return err
	}
	if n, _, err := r.upd.Exec(score, gid); err != nil || n != 1 {
		r.conn.Rollback()
		if err == nil {
			err = fmt.Errorf("RMW on GID %d updated %d rows", gid, n)
		}
		return err
	}
	return r.conn.Commit()
}

func (r *oltpRunner) verify() error { return r.w.check(r.db, true) }
