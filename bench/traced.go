package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bdbms"
	"bdbms/bench/gen"
	"bdbms/bench/layers"
	"bdbms/bench/trace"
)

// perLayerUnits names every per-layer metric and its unit. A traced run
// reports all of them; a metric its workload does not exercise reads 0 (the
// README's prediction table says which workload moves which metric).
var perLayerUnits = map[string]string{
	"server.roundtrip_self_us": "us", "server.wire_encode_row_us": "us", "server.wire_decode_row_us": "us",
	"server.wire_bytes_per_read": "B", "server.rmw_tx_us": "us", "server.errors": "count",
	"sqlparse.parse_us": "us", "exec.plan_us": "us", "exec.point_read_us": "us",
	"exec.q1_filter_agg_ms": "ms", "exec.q2_groupby_ms": "ms", "exec.q3_join3_ms": "ms", "exec.q4_topn_ms": "ms",
	"exec.q5_spill_groupby_ms": "ms", "exec.spill_overhead_ms": "ms",
	"exec.a1_groupby_ms": "ms", "exec.a2_annot_range_ms": "ms", "exec.errors": "count",
	"storage.snapshot_get_us": "us", "storage.mirror_rebuild_ms": "ms", "storage.mirror_rebuild_ratio": "ratio",
	"storage.insert_us": "us", "storage.deadlocks": "count", "btree.lookup_us": "us", "heap.scan_rows_per_s": "1/s",
	"buffer.hit_ratio": "ratio", "buffer.evictions_per_kop": "1/kop", "buffer.writebacks_per_kop": "1/kop",
	"pager.reads_per_kop": "1/kop", "pager.writes_per_kop": "1/kop",
	"wal.append_us": "us", "wal.fsync_us": "us", "wal.bytes_per_tx": "B", "wal.records_per_tx": "count",
	"wal.commit_wait_us": "us", "wal.group_commit_gain": "x",
	"core.checkpoint_ms": "ms", "core.checkpoints": "count", "core.checkpoint_stall_max_ms": "ms",
	"core.open_rows_per_s": "1/s", "core.recover_records_per_s": "1/s",
	"annotation.point_decorate_us": "us", "annotation.decorate_us_per_row": "us", "annotation.add_us": "us",
	"annotation.for_cell_us": "us", "annotation.count": "count",
	"dependency.on_cell_modified_us": "us", "dependency.marks_per_update": "count", "dependency.outdated_cells": "count",
	"authz.record_operation_us": "us", "authz.check_us": "us", "authz.pending_ops": "count",
	"provenance.attach_us": "us", "stats.compute_ms": "ms",
	"curator.write_p50_us": "us", "curator.late_max_ms": "ms",
	"bench.trace_overhead_pct": "%", "bench.op_samples": "count", "bench.ladder_gap_pct": "%",
}

// p50 returns the median of a sample's secondary series in the given unit
// (1e3 for us, 1e6 for ms).
func (s *sample) p50(name string, per float64) float64 {
	return percentileUs(s.second[name], 0.5) * 1e3 / per
}

// traced is the separate run behind the per-layer metrics: one set-up, one
// reopen and one recover, an untraced and a traced window of equal length
// (their difference is the tracing overhead), the span file, and then the
// workload's probes into the layers.
func traced(e *env, w workload, spanPath string) (metrics, error) {
	m := make(metrics, len(perLayerUnits))
	for name := range perLayerUnits {
		m.set(name, 0)
	}
	b, err := build(e, w, 1)
	if err != nil {
		return nil, err
	}
	defer b.db.Close()
	reopens, err := timeOpens(e, w, b.cleanDir, false, 1, w.check)
	if err != nil {
		return nil, err
	}
	recovers, err := timeOpens(e, w, b.crashDir, true, 1, w.check)
	if err != nil {
		return nil, err
	}
	reopen, recoverS := reopens[0], recovers[0]
	m.set("core.checkpoint_ms", b.ckptMs)
	m.set("core.open_rows_per_s", float64(w.rows())/reopen)
	// Both images hold the same state, one checkpointed and one as a WAL
	// tail, so the difference between opening them is the redo.
	if redo := recoverS - reopen; redo > 0 {
		m.set("core.recover_records_per_s", float64(w.tailRecords())/redo)
	}

	r, err := w.start(b.db, b.dir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.run(warmup(e), nil)
	d := time.Duration(e.seconds * 0.35 * float64(time.Second))
	before := layers.ReadIO(b.db)
	plain := measure(r, d, nil, w.tailPercentile())
	io := layers.ReadIO(b.db).Sub(before)
	rec := trace.New(1 << 18)
	win := measure(r, d, rec, w.tailPercentile())
	if err := r.verify(); err != nil {
		return nil, fmt.Errorf("after the window: %w", err)
	}
	if err := rec.WriteFile(spanPath); err != nil {
		return nil, err
	}
	if kops := float64(len(plain.sample.primary)) / 1e3; kops > 0 {
		m.set("buffer.hit_ratio", io.Hits/max(io.Hits+io.Misses, 1))
		m.set("buffer.evictions_per_kop", io.Evictions/kops)
		m.set("buffer.writebacks_per_kop", io.WriteBacks/kops)
		m.set("pager.reads_per_kop", io.Reads/kops)
		m.set("pager.writes_per_kop", io.Writes/kops)
	}
	m.set("bench.trace_overhead_pct", (plain.opsPerS-win.opsPerS)/plain.opsPerS*100)
	m.set("bench.op_samples", float64(len(win.sample.primary)))
	for name, sum := range trace.Summarize(rec.Spans()) {
		fmt.Fprintf(e.log, "span %-18s n=%-7d p50=%10.1f us  self=%10.1f us\n", name, sum.Count, sum.P50us, sum.Selfus)
	}

	if err := r.layers(m, win.sample); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := commonLayers(e, w, b.db, m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	m.set("exec.errors", float64(e.tally.failed.Load()))
	m.set("storage.deadlocks", float64(e.tally.deadlocks.Load()))
	return m, nil
}

// commonLayers runs the probes that need no particular data shape.
func commonLayers(e *env, w workload, db *bdbms.DB, m metrics) error {
	us, err := layers.ParseUs(w.statements(), 50)
	if err != nil {
		return err
	}
	m.set("sqlparse.parse_us", us)

	rate, err := layers.ScanRowsPerSec(db, w.mainTable())
	if err != nil {
		return err
	}
	m.set("heap.scan_rows_per_s", rate)

	scratch := filepath.Join(e.dir, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	appendUs, fsyncUs, err := layers.WALAppendSync(filepath.Join(scratch, "probe.wal"), 120)
	if err != nil {
		return err
	}
	m.set("wal.append_us", appendUs)
	m.set("wal.fsync_us", fsyncUs)

	// storage.insert_us: prepared auto-commit INSERTs into a fresh
	// file-backed Gene table, SyncOnCommit off.
	sdb, err := bdbms.OpenWith(bdbms.Options{DataFile: filepath.Join(scratch, dbFile)})
	if err != nil {
		return err
	}
	defer sdb.Close()
	if _, err := sdb.Exec(createGeneSQL); err != nil {
		return err
	}
	ins, err := sdb.Prepare(insertGeneSQL)
	if err != nil {
		return err
	}
	g := gen.NewGenes(e.seed)
	rows := make([]gen.GeneRow, 2000)
	for i := range rows {
		rows[i] = g.Row(i)
	}
	m.set("storage.insert_us", layers.MedianUs(len(rows), func(i int) {
		if _, ierr := ins.Exec(rows[i].GID, rows[i].Name, rows[i].Family, rows[i].Score, rows[i].Seq); ierr != nil {
			err = ierr
		}
	}))
	return err
}

// drain reads a cursor to its end and closes it.
func drain(rows *bdbms.Rows, err error) error {
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return err
	}
	return rows.Close()
}

// geneLayers runs the probes every Gene workload supports, on keys sampled
// from its own key stream: the embedded point read with and without the
// ANNOTATION clause, the storage calls beneath it, and the annotation store.
// before, when not nil, runs untimed ahead of every read, so the rungs see
// the writes the workload interleaves with its reads. It returns the embedded
// annotated read's median, the top of the ladder below the wire.
func geneLayers(db *bdbms.DB, m metrics, keys []int32, before func(i int)) (float64, error) {
	ctx := context.Background()
	sess := db.Session("admin")
	read := func(sql string) (float64, error) {
		st, err := sess.Prepare(sql)
		if err != nil {
			return 0, err
		}
		us := layers.MedianAfter(len(keys), before, func(i int) {
			if qerr := drain(st.Query(ctx, int(keys[i]))); qerr != nil {
				err = qerr
			}
		})
		return us, err
	}
	annotated, err := read(readSQL)
	if err != nil {
		return 0, err
	}
	bare, err := read(`SELECT GID, Name, Score, Seq FROM Gene WHERE GID = ?`)
	if err != nil {
		return 0, err
	}
	m.set("exec.point_read_us", bare)
	m.set("annotation.point_decorate_us", annotated-bare)

	getUs, lookupUs, err := layers.SnapshotGet(db, "Gene", "GID", keys, before)
	if err != nil {
		return 0, err
	}
	m.set("storage.snapshot_get_us", getUs)
	m.set("btree.lookup_us", lookupUs)

	ms, err := layers.ComputeStatsMs(db, "Gene")
	if err != nil {
		return 0, err
	}
	m.set("stats.compute_ms", ms)

	ids, err := layers.RowIDs(db, "Gene", keys[:min(len(keys), 500)])
	if err != nil {
		return 0, err
	}
	const seqCol = 4
	m.set("annotation.for_cell_us", layers.AnnotationForCell(db, "Gene", ids, seqCol))
	addUs, err := layers.AnnotationAdd(db, "Gene", "Curation", ids, gen.AnnRegionRows, seqCol)
	if err != nil {
		return 0, err
	}
	m.set("annotation.add_us", addUs)
	m.set("annotation.count", float64(layers.AnnotationCount(db, "Gene")))
	return annotated, nil
}

func (r *oltpRunner) layers(m metrics, last *sample) error {
	// The ladder: wire read = server self + annotation decorate + executor
	// self + storage, every rung measured with the window's own mix — a
	// read-modify-write before every tenth read — because the reads pay for
	// the write-back of the pages those writes dirty. The top rung is a
	// short run of the workload itself; the rungs below interleave the same
	// update through the embedded API.
	top := r.run(time.Duration(r.w.e.seconds*0.1*float64(time.Second)), nil)
	wireUs := percentileUs(top.primary, 0.5)
	keys := r.keys[:2000]
	upd, err := r.db.Prepare(updateScoreSQL)
	if err != nil {
		return err
	}
	embedded, err := geneLayers(r.db, m, keys, func(i int) {
		if i%rmwEvery == rmwEvery-1 {
			gid := int(keys[i])
			if _, uerr := upd.Exec(r.w.model.Score(gid), gid); uerr != nil {
				err = uerr
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("server.roundtrip_self_us", wireUs-embedded)
	// The top rung must agree with the traced window's median operation,
	// or the decomposition does not account for the end-to-end number.
	traced := percentileUs(last.primary, 0.5)
	m.set("bench.ladder_gap_pct", (wireUs-traced)/traced*100)
	m.set("server.rmw_tx_us", last.p50("rmw", 1e3))
	m.set("server.errors", float64(r.w.e.tally.failed.Load()))

	st, err := r.db.Prepare(readSQL)
	if err != nil {
		return err
	}
	rows := make([]bdbms.Row, 0, 500)
	for _, k := range keys[:500] {
		res, err := st.Exec(int(k))
		if err != nil {
			return err
		}
		rows = append(rows, res.Rows...)
	}
	enc, dec, size, err := layers.WireRow(rows)
	if err != nil {
		return err
	}
	m.set("server.wire_encode_row_us", enc)
	m.set("server.wire_decode_row_us", dec)
	m.set("server.wire_bytes_per_read", size)
	return nil
}

func (r *ingestRunner) layers(m metrics, last *sample) error {
	m.set("core.checkpoints", float64(len(last.second["checkpoint"])))
	if len(last.second["checkpoint"]) > 0 {
		m.set("core.checkpoint_ms", last.p50("checkpoint", 1e6))
	}
	var longest int64
	for _, lat := range last.primary {
		longest = max(longest, lat)
	}
	m.set("core.checkpoint_stall_max_ms", float64(longest)/1e6)

	// Fixed-count phase: 512 transactions by one writer, no annotation
	// or checkpoint between them, so WAL growth per transaction repeats
	// exactly.
	r.checkpoints = false
	walPath := filepath.Join(r.dir, dbFile+".wal")
	bytes0, recs0 := fileSize(walPath), layers.WALRecords(r.db)
	r.single, r.plainTxs = true, 512
	r.run(time.Minute, nil)
	m.set("wal.bytes_per_tx", float64(fileSize(walPath)-bytes0)/float64(r.plainTxs))
	m.set("wal.records_per_tx", float64(layers.WALRecords(r.db)-recs0)/float64(r.plainTxs))
	r.plainTxs = 0

	// With the commit fsync on: the wait it adds, and what sharing it
	// between two writers wins back.
	probe := time.Duration(r.w.e.seconds * 0.1 * float64(time.Second))
	r.single = false
	async := r.run(probe, nil)
	layers.SetSyncOnCommit(r.db, true)
	both := r.run(probe, nil)
	r.single = true
	one := r.run(probe, nil)
	r.single = false
	layers.SetSyncOnCommit(r.db, false)
	if len(both.primary) == 0 || len(one.primary) == 0 {
		return fmt.Errorf("no transaction committed with SyncOnCommit on")
	}
	m.set("wal.commit_wait_us", percentileUs(both.primary, 0.5)-percentileUs(async.primary, 0.5))
	m.set("wal.group_commit_gain", (float64(len(both.primary))/both.elapsed.Seconds())/(float64(len(one.primary))/one.elapsed.Seconds()))
	_, err := geneLayers(r.db, m, gen.UniformKeys(r.w.e.seed, r.w.model.BaseRows(), 2000), nil)
	return err
}

func (r *analyticsRunner) layers(m metrics, last *sample) error {
	for i, name := range reportNames {
		m.set("exec."+name+"_ms", last.p50(reportNames[i], 1e6))
	}
	m.set("exec.spill_overhead_ms", last.p50("q5_spill_groupby", 1e6)-last.p50("q2_groupby", 1e6))
	// exec.plan_us: EXPLAIN parses and plans the star join without running
	// it; what is left after the parse is the planner.
	sess := r.db.Session("admin")
	var err error
	explain := layers.MedianUs(200, func(int) {
		if _, eerr := sess.Exec(`EXPLAIN ` + reportSQL[2]); eerr != nil {
			err = eerr
		}
	})
	parse, perr := layers.ParseUs([]string{reportSQL[2]}, 200)
	if err == nil {
		err = perr
	}
	m.set("exec.plan_us", explain-parse)
	return err
}

func (r *htapRunner) layers(m metrics, last *sample) error {
	m.set("exec.a1_groupby_ms", last.p50("a1_groupby", 1e6))
	m.set("exec.a2_annot_range_ms", last.p50("a2_annot_range", 1e6))
	m.set("curator.write_p50_us", last.p50("curator_write", 1e3))
	m.set("curator.late_max_ms", last.counts["late_max_ms"])

	// The mirror's price: A1 right after one write against A1 run again with
	// no write between.
	upd, err := r.sess.Prepare(updateScoreSQL)
	if err != nil {
		return err
	}
	a1 := func() float64 {
		start := time.Now()
		if gerr := r.groupBy(); gerr != nil {
			err = gerr
		}
		return float64(time.Since(start)) / 1e6
	}
	var steady, afterWrite []float64
	for i := 0; i < 9; i++ {
		if _, uerr := upd.Exec(i, i); uerr != nil {
			return uerr
		}
		afterWrite = append(afterWrite, a1())
		steady = append(steady, a1())
	}
	if err != nil {
		return err
	}
	rebuild := median(afterWrite) - median(steady)
	m.set("storage.mirror_rebuild_ms", rebuild)
	paid := 0
	for _, lat := range last.second["a1_groupby"] {
		if float64(lat)/1e6 > median(steady)+rebuild/2 {
			paid++
		}
	}
	m.set("storage.mirror_rebuild_ratio", float64(paid)/float64(max(len(last.second["a1_groupby"]), 1)))

	// What ANNOTATION(*) adds to a range read, per row returned.
	span := r.w.e.scaled(htapRangeRows, 100)
	timeRange := func(sql string) float64 {
		return layers.MedianUs(9, func(int) {
			if qerr := drain(r.sess.Query(context.Background(), sql)); qerr != nil {
				err = qerr
			}
		})
	}
	with := timeRange(r.a2[0])
	without := timeRange(fmt.Sprintf(`SELECT GID, Name, Seq FROM Gene WHERE GID >= %d AND GID <= %d`, r.starts[0], int(r.starts[0])+span-1))
	if err != nil {
		return err
	}
	m.set("annotation.decorate_us_per_row", (with-without)/float64(span))

	keys := gen.UniformKeys(r.w.e.seed, r.w.model.BaseRows()-gen.AnnRegionRows, 2000)
	if _, err := geneLayers(r.db, m, keys, nil); err != nil {
		return err
	}
	ids, err := layers.RowIDs(r.db, "Gene", keys[:500])
	if err != nil {
		return err
	}
	modUs, marks, err := layers.OnCellModified(r.db, "Gene", "Seq", ids)
	if err != nil {
		return err
	}
	m.set("dependency.on_cell_modified_us", modUs)
	m.set("dependency.marks_per_update", marks)
	m.set("dependency.outdated_cells", float64(layers.OutdatedCells(r.db)))
	recUs, checkUs, err := layers.RecordOperation(r.db, "Gene", ids)
	if err != nil {
		return err
	}
	m.set("authz.record_operation_us", recUs)
	m.set("authz.check_us", checkUs)
	m.set("authz.pending_ops", float64(layers.PendingOps(r.db, "Gene")))
	attachUs, err := layers.ProvenanceAttach(r.db, "Gene", 5, ids)
	if err != nil {
		return err
	}
	m.set("provenance.attach_us", attachUs)
	return nil
}
