package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bdbms"
	"bdbms/bench/gen"
	"bdbms/bench/trace"
)

// curationHTAP runs the analytics executor with writes beside it: an analyst
// goroutine, closed loop, runs a GROUP BY and an annotated range read per
// round while a curator goroutine, open loop, updates sequences (dependency
// cascade), renames genes (approval log), annotates and inserts. Every write
// drops the columnar mirror, so nearly every round pays a rebuild.
type curationHTAP struct {
	e *env
	*geneData
}

const (
	htapRows      = 20000
	htapAnns      = 1000 // per annotation table
	htapRangeRows = 2000 // rows the annotated range read returns
	// curatorRate is the open loop's writes per second. A round that follows
	// a write rebuilds the columnar mirror and costs about twice one that
	// does not. At 12/s some 30 % of rounds rebuild, so the median round is
	// safely of the cheap kind and the p90 round safely of the other. At
	// 20/s half rebuilt and the median flipped between kinds from run to
	// run; at 50/s writes queued behind the builds and host noise was
	// amplified (ops_per_s spread 27 %).
	curatorRate = 12.0
	htapPool    = 32768
)

func newCurationHTAP(e *env) *curationHTAP {
	return &curationHTAP{e: e, geneData: newGeneData(e, e.scaled(htapRows, 1000), e.scaled(htapAnns, 20), []string{"Curation", "Lineage"}, true, true)}
}

func (w *curationHTAP) options(path string) bdbms.Options {
	return bdbms.Options{DataFile: path, PoolSize: htapPool}
}
func (w *curationHTAP) tailPercentile() float64 { return 0.90 }

const (
	a1SQL = `SELECT Family, COUNT(*), SUM(Score) FROM Gene GROUP BY Family`
	// The range bounds are literals, not placeholders: see addAnnSQL.
	a2SQL = `SELECT GID, Name, Seq FROM Gene ANNOTATION(*) WHERE GID >= %d AND GID <= %d`
)

type htapRunner struct {
	w      *curationHTAP
	db     *bdbms.DB
	sess   *bdbms.Session
	a1     *bdbms.Stmt
	starts []int32  // first GID of each round's range read
	a2     []string // the range reads, spelled out before the window
	round  int

	mut     *mutator
	ops     []gen.Mut
	args    [][]any // bind arguments of ops, built before any window
	gaps    []int64 // ns between curator writes
	applied int     // curator writes executed so far; the oracle holds ops[:counted]
	counted int
	annBase []int32 // annBase[g]: annotations on Seq over rows [0, g) when the runner started
}

func (w *curationHTAP) start(db *bdbms.DB, _ string) (runner, error) {
	r := &htapRunner{w: w, db: db}
	r.sess = db.Session("admin")
	var err error
	if r.a1, err = r.sess.Prepare(a1SQL); err != nil {
		return nil, err
	}
	if r.mut, err = w.mutator(db, "curator"); err != nil {
		return nil, err
	}
	base := w.model.BaseRows()
	span := w.e.scaled(htapRangeRows, 100)
	r.starts = gen.UniformKeys(w.e.seed, base-span, 1024)
	r.a2 = make([]string, len(r.starts))
	for i, lo := range r.starts {
		r.a2[i] = fmt.Sprintf(a2SQL, lo, int(lo)+span-1)
	}
	// Enough writes for warm-up, window and the traced run's extra windows.
	n := int(curatorRate*w.e.seconds*3) + 64
	r.ops = gen.CuratorOps(w.e.seed, base, n)
	r.args = make([][]any, n)
	for i, mu := range r.ops {
		r.args[i] = w.args(mu)
	}
	due := gen.Schedule(w.e.seed, curatorRate, n)
	r.gaps = make([]int64, n)
	for i := range due {
		r.gaps[i] = due[i]
		if i > 0 {
			r.gaps[i] -= due[i-1]
		}
	}
	r.annBase = make([]int32, base+1)
	for g := 0; g < base; g++ {
		r.annBase[g+1] = r.annBase[g] + int32(w.model.AnnOnSeq[g])
	}
	return r, nil
}

func (r *htapRunner) close() {}

func (r *htapRunner) run(d time.Duration, rec *trace.Recorder) *sample {
	s := newSample()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	var cur *sample
	go func() {
		defer wg.Done()
		cur = r.curate(start, d)
	}()
	t := r.w.e.tally
	span := r.w.e.scaled(htapRangeRows, 100)
	now := start
	for now.Sub(start) < d {
		i := r.round % len(r.starts)
		lo := int(r.starts[i])
		r.round++
		rec.Begin("htap.round")
		rec.Begin("a1_groupby")
		err := r.groupBy()
		rec.End()
		mid := time.Now()
		if err == nil {
			rec.Begin("a2_annot_range")
			err = r.annotatedRange(r.a2[i], lo, lo+span-1)
			rec.End()
		}
		rec.End()
		end := time.Now()
		if err != nil {
			t.fail(err)
		} else {
			t.ok()
			s.primary, s.ends = append(s.primary, int64(end.Sub(now))), append(s.ends, int64(end.Sub(start)))
			s.second["a1_groupby"] = append(s.second["a1_groupby"], int64(mid.Sub(now)))
			s.second["a2_annot_range"] = append(s.second["a2_annot_range"], int64(end.Sub(mid)))
		}
		now = end
	}
	s.elapsed = now.Sub(start)
	wg.Wait()
	// Whether the run ends on a write (mirror dropped) or on a read (mirror
	// rebuilt) is a race between the two goroutines, and the mirror is a
	// sixth of the live heap. End every run on a read.
	if err := r.groupBy(); err != nil {
		t.fail(err)
	}
	s.second["curator_write"] = cur.second["curator_write"]
	s.counts = cur.counts
	return s
}

// curate issues writes on the seeded schedule whether or not earlier ones
// were slow. A write's latency runs from when it was due, so a stall charges
// every write queued behind it.
func (r *htapRunner) curate(start time.Time, d time.Duration) *sample {
	s := newSample()
	t := r.w.e.tally
	var due time.Duration
	for r.applied < len(r.ops) {
		due += time.Duration(r.gaps[r.applied])
		if due >= d {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(start) - due
		err := r.mut.exec(r.ops[r.applied], r.args[r.applied])
		lat := time.Since(start) - due
		r.applied++
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		s.second["curator_write"] = append(s.second["curator_write"], int64(lat))
		s.counts["late_max_ms"] = max(s.counts["late_max_ms"], float64(late)/1e6)
	}
	return s
}

// groupBy runs A1. Its counts must add up to a row count the table held at
// some point of this run: the curator inserts beside it.
func (r *htapRunner) groupBy() error {
	rows, err := r.a1.Query(context.Background())
	if err != nil {
		return err
	}
	defer rows.Close()
	var families, total int64
	for rows.Next() {
		families++
		total += rows.Row().Values[1].Int()
	}
	if err := rows.Err(); err != nil {
		return err
	}
	lo, hi := int64(r.w.model.Rows), int64(r.w.model.Rows+len(r.ops))
	if families != gen.Families || total < lo || total > hi {
		return fmt.Errorf("A1: %d families, %d rows; oracle %d families, %d..%d rows", families, total, gen.Families, lo, hi)
	}
	return nil
}

// annotatedRange runs A2 over loaded rows lo..hi, which nothing deletes, and
// checks the row count exactly and the annotations on Seq from below: the
// curator only adds.
func (r *htapRunner) annotatedRange(sql string, lo, hi int) error {
	rows, err := r.sess.Query(context.Background(), sql)
	if err != nil {
		return err
	}
	defer rows.Close()
	n, anns := 0, 0
	for rows.Next() {
		n++
		anns += len(rows.Annotations()[2])
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if want := int(r.annBase[hi+1] - r.annBase[lo]); n != hi-lo+1 || anns < want {
		return fmt.Errorf("A2 over %d..%d: %d rows with %d annotations on Seq, oracle %d rows, at least %d", lo, hi, n, anns, hi-lo+1, want)
	}
	return nil
}

// verify brings the oracle up to the curator's last write and compares:
// rows, annotations, outdated cells, SUM(Score) and the approval log.
func (r *htapRunner) verify() error {
	for _, mu := range r.ops[r.counted:r.applied] {
		r.w.model.Apply(mu, true, true)
	}
	r.counted = r.applied
	if err := r.w.check(r.db, true); err != nil {
		return err
	}
	if got := len(r.db.Authorization().Pending("Gene")); got != r.w.model.Pending {
		return fmt.Errorf("%d pending operations, oracle %d", got, r.w.model.Pending)
	}
	return nil
}
