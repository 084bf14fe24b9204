package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bdbms"
	"bdbms/bench/gen"
	"bdbms/bench/trace"
)

// durableIngest is the write-path workload: closed-loop writers through the
// embedded API, each committing four-row transactions, so WAL append, heap
// insert, index and statistics maintenance, undo and MVCC bookkeeping and the
// table latch between the writers do the work. What makes it durable is
// checked, not timed: after the window the files are copied as a crash would
// leave them and every acknowledged row must come back.
//
// SyncOnCommit is off while the end-to-end window runs. With it on, every
// number of this workload would be this sandbox's fsync — measured at 0.3 ms
// and at 100 ms within one hour on one machine — and no bound could hold.
// The traced run switches it on and reports the commit wait per layer.
type durableIngest struct {
	e *env
	*geneData
	pool []gen.GeneRow // row contents the writers cycle through; GIDs are arithmetic
}

const (
	ingestRows = 50000
	ingestAnns = 500
	ingestPool = 4096
	txRows     = 4
	annEvery   = 8  // every 8th transaction is followed by an ADD ANNOTATION over its rows
	readEvery  = 16 // every 16th by a read-back of an acknowledged row
	ckptEvery  = 3000
	// maxIngestAnns statements are spelled out per writer: enough for 65 536
	// transactions, several times what a 60-second window completes.
	maxIngestAnns = 8192
	crashTxs      = 1000       // transactions per writer between the last checkpoint and the crash image
	writerStride  = 10_000_000 // writer w inserts GIDs from (w+1)*writerStride up
)

func newDurableIngest(e *env) *durableIngest {
	w := &durableIngest{e: e, geneData: newGeneData(e, e.scaled(ingestRows, 1000), e.scaled(ingestAnns, 20), []string{"Curation"}, false, false)}
	w.pool = make([]gen.GeneRow, ingestPool)
	for i := range w.pool {
		w.pool[i] = w.model.G.RowAt(writerStride+i, 0)
	}
	return w
}

func (w *durableIngest) options(path string) bdbms.Options { return bdbms.Options{DataFile: path} }
func (w *durableIngest) tailPercentile() float64           { return 0.99 }

// writers is min(nproc, 2): more busy goroutines than cores is what made an
// earlier benchmark's numbers wander.
func writers() int { return min(runtime.NumCPU(), 2) }

type ingestWriter struct {
	sess    *bdbms.Session
	ins     *bdbms.Stmt
	add     []string // ADD ANNOTATION over the rows of transaction annEvery*(i+1)-1, spelled out before the window
	read    *bdbms.Stmt
	base    int // first GID
	acked   int // transactions acknowledged, over all runs
	counted int // of those, how many the oracle already holds
	anns    int // annotations added and not yet in the oracle
}

type ingestRunner struct {
	w       *durableIngest
	db      *bdbms.DB
	dir     string // directory of the live database
	writers []*ingestWriter
	single  bool // drive one writer only (the group-commit probe)
	// checkpoints makes writer 0 call Checkpoint every ckptEvery commits.
	// Only the traced run sets it: a checkpoint is four fsyncs and a flush
	// of every dirty page, so its duration is the disk's, not the engine's.
	checkpoints bool
	// plainTxs, when positive, makes run stop after that many transactions
	// and skip the secondary operations (the WAL-bytes-per-transaction probe).
	plainTxs int
}

func (w *durableIngest) start(db *bdbms.DB, dir string) (runner, error) {
	r := &ingestRunner{w: w, db: db, dir: dir, checkpoints: w.e.traced}
	for i := 0; i < writers(); i++ {
		wr := &ingestWriter{sess: db.Session("admin"), base: (i + 1) * writerStride}
		var err error
		if wr.ins, err = wr.sess.Prepare(insertGeneSQL); err == nil {
			wr.read, err = wr.sess.Prepare(`SELECT GID, Name FROM Gene WHERE GID = ?`)
		}
		if err != nil {
			return nil, err
		}
		wr.add = make([]string, maxIngestAnns)
		for a := range wr.add {
			first := wr.base + (annEvery*(a+1)-1)*txRows
			wr.add[a] = addAnnSQL("Curation", first, first+txRows-1)
		}
		r.writers = append(r.writers, wr)
	}
	return r, nil
}

func (r *ingestRunner) close() {}

func (r *ingestRunner) run(d time.Duration, rec *trace.Recorder) *sample {
	active := r.writers
	if r.single {
		active = active[:1]
	}
	parts := make([]*sample, len(active))
	var wg sync.WaitGroup
	start := time.Now()
	for i, wr := range active {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Only writer 0 is traced and checkpoints: a Recorder belongs
			// to one goroutine.
			if i == 0 {
				parts[i] = r.write(wr, start, d, rec, r.checkpoints)
			} else {
				parts[i] = r.write(wr, start, d, nil, false)
			}
		}()
	}
	wg.Wait()
	s := newSample()
	s.elapsed = time.Since(start)
	// Merge the writers' operations in the order they ended.
	next := make([]int, len(parts))
	for {
		first := -1
		for i, p := range parts {
			if next[i] < len(p.ends) && (first < 0 || p.ends[next[i]] < parts[first].ends[next[first]]) {
				first = i
			}
		}
		if first < 0 {
			break
		}
		p := parts[first]
		s.primary, s.ends = append(s.primary, p.primary[next[first]]), append(s.ends, p.ends[next[first]])
		next[first]++
	}
	for _, p := range parts {
		for k, v := range p.second {
			s.second[k] = append(s.second[k], v...)
		}
	}
	return s
}

func (r *ingestRunner) write(wr *ingestWriter, start time.Time, d time.Duration, rec *trace.Recorder, checkpoints bool) *sample {
	s := newSample()
	s.primary, s.ends = make([]int64, 0, 1<<17), make([]int64, 0, 1<<17)
	ctx, t, pool := context.Background(), r.w.e.tally, r.w.pool
	every := r.w.e.scaled(ckptEvery, 50)
	now := time.Now()
	for n := 0; now.Sub(start) < d; n++ {
		if r.plainTxs > 0 && n == r.plainTxs {
			break
		}
		first := wr.base + wr.acked*txRows
		rec.Begin("ingest.tx")
		err := func() error {
			rec.Begin("session.begin")
			tx, err := wr.sess.Begin(ctx)
			rec.End()
			if err != nil {
				return err
			}
			rec.Begin("stmt.insert")
			for gid := first; gid < first+txRows; gid++ {
				row := &pool[gid%len(pool)]
				if _, err := wr.ins.Exec(gid, row.Name, row.Family, row.Score, row.Seq); err != nil {
					rec.End()
					tx.Rollback()
					return err
				}
			}
			rec.End()
			rec.Begin("tx.commit")
			err = tx.Commit()
			rec.End()
			return err
		}()
		rec.End()
		end := time.Now()
		if err != nil {
			t.fail(err)
			now = end
			continue
		}
		t.ok()
		wr.acked++
		s.primary, s.ends = append(s.primary, int64(end.Sub(now))), append(s.ends, int64(end.Sub(start)))
		now = end
		if r.plainTxs > 0 {
			continue
		}

		if a := wr.acked/annEvery - 1; wr.acked%annEvery == 0 && a < len(wr.add) {
			if _, err := wr.sess.Exec(wr.add[a]); err != nil {
				t.fail(err)
			} else {
				t.ok()
				wr.anns++
			}
			end = time.Now()
			s.second["add_annotation"] = append(s.second["add_annotation"], int64(end.Sub(now)))
			now = end
		}
		if wr.acked%readEvery == 0 {
			gid := wr.base + (wr.acked/2)*txRows
			if err := r.readBack(wr, gid); err != nil {
				t.fail(err)
			} else {
				t.ok()
			}
			end = time.Now()
			s.second["read_back"] = append(s.second["read_back"], int64(end.Sub(now)))
			now = end
		}
		if checkpoints && wr.acked%every == 0 {
			if err := r.db.Checkpoint(); err != nil {
				t.fail(err)
			} else {
				t.ok()
			}
			end = time.Now()
			s.second["checkpoint"] = append(s.second["checkpoint"], int64(end.Sub(now)))
			now = end
		}
	}
	return s
}

// readBack reads an acknowledged row by primary key and checks its content.
func (r *ingestRunner) readBack(wr *ingestWriter, gid int) error {
	rows, err := wr.read.Query(context.Background(), gid)
	if err != nil {
		return err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
		if name := rows.Row().Values[1].Text(); name != r.w.pool[gid%len(r.w.pool)].Name {
			return fmt.Errorf("read-back of GID %d: name %q, oracle %q", gid, name, r.w.pool[gid%len(r.w.pool)].Name)
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("read-back of acknowledged GID %d returned %d rows", gid, n)
	}
	return nil
}

// verify is the durability check. The window's rows are checkpointed first —
// redoing a whole window's log would take longer than the window — then
// crashTxs more transactions are acknowledged and, with the database still
// open, its files are copied: the bytes a crash would leave. The recovered
// copy must hold every acknowledged row, from the checkpoint and from the
// log, and nothing else.
func (r *ingestRunner) verify() error {
	if err := r.db.Checkpoint(); err != nil {
		return err
	}
	r.plainTxs = crashTxs
	r.run(time.Minute, nil)
	r.plainTxs = 0
	for _, wr := range r.writers {
		for gid := wr.base + wr.counted*txRows; gid < wr.base+wr.acked*txRows; gid++ {
			row := r.w.pool[gid%len(r.w.pool)]
			row.GID = gid
			r.w.model.ApplyInsert(row)
		}
		r.w.model.Anns += wr.anns
		wr.counted, wr.anns = wr.acked, 0
	}
	if err := r.w.check(r.db, false); err != nil {
		return err
	}
	_, err := timeOpens(r.w.e, r.w, r.dir, true, 0, r.w.check) // its one open gets the full check
	return err
}
