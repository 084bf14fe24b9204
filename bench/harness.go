package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"bdbms"
	"bdbms/bench/trace"
	"bdbms/internal/storage"
)

// workload is what the harness needs from one of the four workloads. The
// harness owns the phases every workload shares — repeated set-up, the
// deterministic tail, crash and checkpoint images, reopen and recover
// timing, warm-up and the timed window — so that the eleven end-to-end
// metrics mean the same thing on each.
type workload interface {
	// options returns the engine options for a database at path.
	options(path string) bdbms.Options
	// load creates the schema and loads the fixed-count data; the harness
	// times it.
	load(db *bdbms.DB) error
	// tail applies the workload's fixed mutation tail to the engine and to
	// the oracle.
	tail(db *bdbms.DB) error
	// tailRecords is the number of mutations tail applies.
	tailRecords() int
	// check compares the engine's state with the oracle. full adds the
	// checks that cost a table scan.
	check(db *bdbms.DB, full bool) error
	// rows is the number of user rows the oracle holds.
	rows() int
	// userBytes returns the oracle's live user bytes and the user bytes of
	// every row image written so far.
	userBytes() (live, written int64)
	// start readies the runner that generates the window's load on the
	// open database whose files are in dir.
	start(db *bdbms.DB, dir string) (runner, error)
	// tailPercentile is the highest percentile the window is sure to leave
	// ten samples beyond.
	tailPercentile() float64
	// statements lists the statement texts the workload uses (traced runs
	// only).
	statements() []string
	// mainTable names the workload's largest table.
	mainTable() string
}

// runner generates load against an open database. run may be called several
// times (warm-up, then the window); op positions carry on from call to call.
type runner interface {
	// run drives the workload for d and returns what it measured. rec is nil
	// on untraced runs.
	run(d time.Duration, rec *trace.Recorder) *sample
	// verify checks the engine against the oracle after the last run.
	verify() error
	// layers adds the workload's per-layer probes to m (traced runs only).
	layers(m metrics, last *sample) error
	// close releases connections and servers, not the database.
	close()
}

// sample is what one run measured.
type sample struct {
	elapsed time.Duration
	primary []int64            // latency of each primary operation, ns
	ends    []int64            // when each primary operation ended, ns from the run's start
	second  map[string][]int64 // latencies of secondary operations and parts, ns, by name
	counts  map[string]float64 // counters, by name
}

func newSample() *sample {
	return &sample{second: make(map[string][]int64), counts: make(map[string]float64)}
}

// tally counts operations attempted and failed over the whole run. A failed
// operation is one that returned an error or a result the oracle rejects.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	deadlocks atomic.Int64 // failed operations that were deadlock refusals
	firstErr  atomic.Pointer[string]
}

func (t *tally) ok() { t.attempted.Add(1) }

// isDeadlock reports whether an operation was refused to break a latch cycle.
func isDeadlock(err error) bool { return errors.Is(err, storage.ErrDeadlock) }

func (t *tally) fail(err error) {
	t.attempted.Add(1)
	t.failed.Add(1)
	if isDeadlock(err) {
		t.deadlocks.Add(1)
	}
	msg := err.Error()
	t.firstErr.CompareAndSwap(nil, &msg)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric under its registered unit; an unregistered name is a
// bug in the benchmark.
func (m metrics) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		panic("bench: unregistered metric " + name)
	}
	m[name] = metric{v, unit}
}

// env is one benchmark run's settings.
type env struct {
	dir     string  // scratch directory, inside the checkout
	seed    int64   // input seed
	seconds float64 // length of the timed window
	scale   float64 // data-size factor; 1 is the seed size
	traced  bool    // the traced run, not the end-to-end one
	tally   *tally
	log     io.Writer
}

// scaled returns n shrunk by the scale factor, never below min.
func (e *env) scaled(n, min int) int {
	if v := int(float64(n) * e.scale); v > min {
		return v
	}
	return min
}

const dbFile = "bench.db"

// dbSuffixes are the four files of a durable database.
var dbSuffixes = []string{"", ".wal", ".catalog", ".manifest"}

// copyDB copies the four database files from one directory to another: a
// crash image when the source is open, a backup when it was checkpointed.
func copyDB(srcDir, dstDir string) error {
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return err
	}
	for _, suf := range dbSuffixes {
		if err := copyFile(filepath.Join(srcDir, dbFile+suf), filepath.Join(dstDir, dbFile+suf)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // no checkpoint yet: the file is legitimately absent
		}
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// diskBytes sums the sizes of the database's four files.
func diskBytes(dir string) int64 {
	var total int64
	for _, suf := range dbSuffixes {
		total += fileSize(filepath.Join(dir, dbFile+suf))
	}
	return total
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value of v.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentileUs returns the p-quantile of latencies in microseconds.
func percentileUs(v []int64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(p*float64(len(s)-1))]) / 1e3
}

// built is a database after set-up, tail and checkpoint, with the two images
// reopen_s and recover_s are measured on.
type built struct {
	db       *bdbms.DB
	dir      string  // directory of the live database
	crashDir string  // files copied after the tail, before any checkpoint
	cleanDir string  // files copied after the checkpoint that followed
	setupS   float64 // median set-up time
	writeAmp float64
	spaceAmp float64
	ckptMs   float64 // the set-up's Checkpoint call
}

// build runs set-up reps times on fresh directories and keeps the last
// database, then applies the tail and takes the two images.
func build(e *env, w workload, reps int) (*built, error) {
	b := &built{}
	var setups []float64
	var walBytes int64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("db%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		db, err := bdbms.OpenWith(w.options(filepath.Join(dir, dbFile)))
		if err != nil {
			return nil, err
		}
		if err := w.load(db); err != nil {
			db.Close()
			return nil, fmt.Errorf("load: %w", err)
		}
		// setup_s stops here, before the Checkpoint: a checkpoint pushes
		// every dirty page through fsync, and in this sandbox the same
		// fsync takes 0.3 ms one minute and 100 ms the next. Its time is
		// reported per layer (core.checkpoint_ms), without a bound.
		setups = append(setups, time.Since(start).Seconds())
		walBytes = fileSize(filepath.Join(dir, dbFile+".wal"))
		ckpt := time.Now()
		if err := db.Checkpoint(); err != nil {
			db.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		b.ckptMs = float64(time.Since(ckpt)) / 1e6
		if i < reps-1 {
			if err := db.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		b.db, b.dir = db, dir
	}
	b.setupS = median(setups)
	if err := w.check(b.db, false); err != nil {
		return nil, fmt.Errorf("after set-up: %w", err)
	}

	if err := w.tail(b.db); err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	b.crashDir = filepath.Join(e.dir, "crash")
	if err := copyDB(b.dir, b.crashDir); err != nil {
		return nil, err
	}
	walBytes += fileSize(filepath.Join(b.dir, dbFile+".wal"))
	if err := b.db.Checkpoint(); err != nil {
		return nil, err
	}
	b.cleanDir = filepath.Join(e.dir, "clean")
	if err := copyDB(b.dir, b.cleanDir); err != nil {
		return nil, err
	}

	// Both amplifications are taken over the fixed-count phases only, so
	// they do not depend on how many operations a window completed.
	stats := b.db.Storage().PagerStats()
	pageFile := fileSize(filepath.Join(b.dir, dbFile))
	frame := float64(pageFile) / float64(stats.Allocs) // bytes one page occupies on disk
	live, written := w.userBytes()
	b.writeAmp = (float64(stats.Writes)*frame + float64(walBytes)) / float64(written)
	b.spaceAmp = float64(diskBytes(b.dir)) / float64(live)
	return b, nil
}

// Each batch of opens times an image at least minOpens and at most maxOpens
// times after one discarded open, and stops in between once the timed opens
// add up to openBudget: small images open in tens of milliseconds and need
// the repetitions, large ones would spend the run on them.
const (
	minOpens   = 3
	maxOpens   = 8
	openBudget = 800 * time.Millisecond
)

// timeOpens times opening a database image: one discarded open, then up to
// reps timed ones. A fresh copy is opened each time when fresh is set (a crash
// image is consumed by its first open, whose Close checkpoints it). check
// compares every opened database with what it must hold; full is set on the
// last open.
func timeOpens(e *env, w workload, image string, fresh bool, reps int, check func(db *bdbms.DB, full bool) error) ([]float64, error) {
	var times []float64
	var spent time.Duration
	dir := filepath.Join(e.dir, "open")
	for i := 0; i <= reps; i++ {
		last := i == reps || (i >= minOpens && spent >= openBudget)
		if fresh || i == 0 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			if err := copyDB(image, dir); err != nil {
				return nil, err
			}
		}
		// Each open starts from a collected heap and runs with the collector
		// off: a collection during the open would mark the live database this
		// process also holds, which grows over the window, and the opens
		// before and after it would not be timing the same thing.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		start := time.Now()
		db, err := bdbms.OpenWith(w.options(filepath.Join(dir, dbFile)))
		took := time.Since(start)
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", image, err)
		}
		if err := check(db, last); err != nil {
			db.Close()
			return nil, fmt.Errorf("state after opening %s: %w", filepath.Base(image), err)
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		if i > 0 {
			times = append(times, took.Seconds())
			spent += took
		}
		if last {
			break
		}
	}
	return times, os.RemoveAll(dir)
}

// opens collects the open times behind reopen_s and recover_s. They are
// taken in two batches, one before the warm-up and one after the window: on
// this sandbox interference comes in bursts of seconds, a whole batch of
// opens fits inside one burst, and two batches a window apart rarely both do.
type opens struct {
	e        *env
	w        workload
	b        *built
	mainRows int // rows of the main table in both images
	reopen   []float64
	recover  []float64
}

// batch opens both images. While the oracle still describes the images (before
// the window) every open is checked against it; afterwards, against the row
// count the first batch saw.
func (o *opens) batch(oracle bool) error {
	check := func(db *bdbms.DB, full bool) (err error) {
		if o.mainRows, err = mainRows(db, o.w); err != nil {
			return err
		}
		return o.w.check(db, full)
	}
	if !oracle {
		check = func(db *bdbms.DB, _ bool) error {
			got, err := mainRows(db, o.w)
			if err == nil && got != o.mainRows {
				err = fmt.Errorf("%s has %d rows, the same image held %d before the window", o.w.mainTable(), got, o.mainRows)
			}
			return err
		}
	}
	t, err := timeOpens(o.e, o.w, o.b.cleanDir, false, maxOpens, check)
	if err != nil {
		return err
	}
	o.reopen = append(o.reopen, t...)
	if t, err = timeOpens(o.e, o.w, o.b.crashDir, true, maxOpens, check); err != nil {
		return err
	}
	o.recover = append(o.recover, t...)
	fmt.Fprintf(o.e.log, "opens so far: reopen %.4f, recover %.4f s\n", o.reopen, o.recover)
	return nil
}

func mainRows(db *bdbms.DB, w workload) (int, error) {
	tbl, err := db.Storage().Table(w.mainTable())
	if err != nil {
		return 0, err
	}
	return tbl.RowCount(), nil
}

// slices is the number of equal parts a window is cut into. Throughput,
// latency percentiles and CPU per operation are computed per slice, and the
// fast quartile of the slices is reported (see fastQuartile).
const slices = 20

// tailBeyond is how many samples a part of the window must leave beyond the
// tail percentile: op_tail_us is computed over parts of tailBeyond / (1 - p)
// operations, 40 for a p90 and 400 for a p99.
const tailBeyond = 4

// fastQuartile returns the quartile of v on its fast side: the first
// quartile of times, the third of rates. Interference from outside the
// process — another tenant's burst on a shared host, a stalled disk — only
// ever makes a sample slower, and on this sandbox it comes in bursts of
// seconds that move a window's mean, and often its median, by 20 % from one
// run to the next. The fast quartile is the speed the program reaches in the
// quarter of the samples that were disturbed least; it still needs a quarter
// of the samples to agree, so one lucky sample cannot set it.
func fastQuartile(v []float64, higherIsFaster bool) float64 {
	q1, _, q3 := quartiles(v)
	if higherIsFaster {
		return q3
	}
	return q1
}

// window is the measured part of a run: what the sample says plus the
// process-wide costs taken around it.
type window struct {
	sample     *sample
	rates      []float64 // ops/s of each slice, in time order
	opsPerS    float64
	p50Us      float64
	tailUs     float64
	cpuUsPerOp float64
	allocBytes uint64
	liveHeap   uint64
}

// measure runs r for d between a forced GC and the readings of allocation,
// while a sampler reads the process's CPU time at every slice boundary.
func measure(r runner, d time.Duration, rec *trace.Recorder, tailP float64) window {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	type reading struct{ at, cpu time.Duration }
	readings := make([]reading, 0, slices+1)
	stop, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		tick := time.NewTicker(d / slices)
		defer tick.Stop()
		readings = append(readings, reading{0, cpuTime()})
		for len(readings) < slices {
			select {
			case <-tick.C:
				readings = append(readings, reading{time.Since(start), cpuTime()})
			case <-stop:
				return
			}
		}
	}()
	s := r.run(d, rec)
	close(stop)
	<-done
	readings = append(readings, reading{time.Since(start), cpuTime()})

	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	w := window{sample: s, allocBytes: after.TotalAlloc - before.TotalAlloc, liveHeap: live.HeapAlloc}

	// A slice runs from the end of the last operation before it to the end
	// of its own last operation, so that a slice of a few long operations
	// is not charged for the one still running at the boundary.
	var rate, p50, tail, cpu []float64
	lo, from := 0, time.Duration(0)
	for i := 1; i < len(readings); i++ {
		hi := lo
		for hi < len(s.ends) && (time.Duration(s.ends[hi]) <= readings[i].at || i == len(readings)-1) {
			hi++
		}
		if hi == lo {
			continue
		}
		n, to := float64(hi-lo), time.Duration(s.ends[hi-1])
		rate = append(rate, n/(to-from).Seconds())
		p50 = append(p50, percentileUs(s.primary[lo:hi], 0.50))
		cpu = append(cpu, float64(readings[i].cpu-readings[i-1].cpu)/1e3/n)
		lo, from = hi, to
	}
	// A tail percentile needs samples beyond it, so the tail is taken over
	// parts that hold enough operations (see tailBeyond), in time order, at
	// most one per slice. The window as a whole leaves far more than ten
	// samples beyond the percentile; a part only has to rank its own.
	per := int(math.Round(tailBeyond / (1 - tailP)))
	parts := max(1, min(slices, len(s.primary)/per))
	for i := 0; i < parts; i++ {
		lo, hi := i*len(s.primary)/parts, (i+1)*len(s.primary)/parts
		tail = append(tail, percentileUs(s.primary[lo:hi], tailP))
	}
	w.rates = append([]float64(nil), rate...)
	if len(rate) > 0 {
		w.opsPerS = fastQuartile(rate, true)
		w.p50Us, w.tailUs, w.cpuUsPerOp = fastQuartile(p50, false), fastQuartile(tail, false), fastQuartile(cpu, false)
	}
	return w
}

// setupReps is how many times an end-to-end run sets up; setup_s is the
// median.
const setupReps = 3

// endToEnd runs one workload untraced and returns the eleven end-to-end
// metrics.
func endToEnd(e *env, w workload) (metrics, error) {
	phase := time.Now()
	lap := func(name string) {
		fmt.Fprintf(e.log, "phase %-16s %6.2f s\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	b, err := build(e, w, setupReps)
	if err != nil {
		return nil, err
	}
	defer b.db.Close()
	lap("set-ups, tail")
	o := &opens{e: e, w: w, b: b}
	if err := o.batch(true); err != nil {
		return nil, err
	}
	lap("opens")

	r, err := w.start(b.db, b.dir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.run(warmup(e), nil)
	win := measure(r, time.Duration(e.seconds*float64(time.Second)), nil, w.tailPercentile())
	lap("warm-up, window")
	if err := r.verify(); err != nil {
		return nil, fmt.Errorf("after the window: %w", err)
	}
	lap("verify")
	if err := o.batch(false); err != nil {
		return nil, err
	}
	lap("opens again")
	ops := float64(len(win.sample.primary))
	if ops == 0 {
		return nil, fmt.Errorf("no primary operation completed")
	}
	fmt.Fprintf(e.log, "op samples: %d; ops/s by slice: %.4g\n", len(win.sample.primary), win.rates)
	m := make(metrics, len(endToEndUnits))
	for name, v := range map[string]float64{
		"setup_s": b.setupS, "ops_per_s": win.opsPerS, "op_p50_us": win.p50Us, "op_tail_us": win.tailUs,
		"cpu_us_per_op": win.cpuUsPerOp, "alloc_kb_per_op": float64(win.allocBytes) / 1e3 / ops,
		"live_heap_mb": float64(win.liveHeap) / 1e6, "reopen_s": fastQuartile(o.reopen, false), "recover_s": fastQuartile(o.recover, false),
		"write_amp": b.writeAmp, "space_amp": b.spaceAmp,
	} {
		m.set(name, v)
	}
	return m, nil
}

// warmup is long enough to fill the plan cache, the columnar mirror and the
// page cache at seed size.
func warmup(e *env) time.Duration {
	return time.Duration(e.seconds * 0.15 * float64(time.Second))
}
