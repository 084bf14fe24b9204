// Command bdbms-bench regenerates the paper's evaluation: one table per
// experiment E1-E9 (the quantitative claims of Section 7 plus the behaviour
// each concept figure depicts, each named with its section or figure below)
// and the executor experiments E10-E11, printed in a paper-style layout.
// bench_test.go measures the same experiments as Go benchmarks;
// docs/PERFORMANCE.md records measured runs of the repository benchmark.
//
// Usage:
//
//	bdbms-bench [-experiment E1|E2|...|E11|all] [-scale 1.0]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bdbms"
	"bdbms/internal/annotation"
	"bdbms/internal/biogen"
	"bdbms/internal/btree"
	"bdbms/internal/dependency"
	"bdbms/internal/provenance"
	"bdbms/internal/rtree"
	"bdbms/internal/sbctree"
	"bdbms/internal/spgist"
	"bdbms/internal/stringbtree"
	"bdbms/internal/value"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run (E1..E11 or all)")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	netMode := flag.Bool("net", false, "network benchmark: drive a bdbms-server with concurrent client connections instead of running E1-E9")
	addr := flag.String("addr", "", "-net: server address (empty = spawn an in-process server)")
	user := flag.String("user", "bench", "-net: login user")
	secret := flag.String("secret", "bench", "-net: login secret")
	conns := flag.Int("conns", 100, "-net: concurrent client connections")
	duration := flag.Duration("duration", 3*time.Second, "-net: measurement duration")
	workload := flag.String("workload", "mixed", "-net: point, insert or mixed")
	rows := flag.Int("rows", 10000, "-net: seeded Bench table size")
	flag.Parse()

	if *netMode {
		os.Exit(runNet(netConfig{
			addr: *addr, user: *user, secret: *secret, conns: *conns,
			duration: *duration, workload: *workload, rows: *rows,
		}, os.Stdout))
	}

	experiments := []struct {
		name string
		desc string
		run  func(scale float64)
	}{
		{"E1", "SBC-tree storage reduction vs String B-tree (Section 7.2)", runE1},
		{"E2", "SBC-tree insertion I/O vs String B-tree (Section 7.2)", runE2},
		{"E3", "SBC-tree search latency vs String B-tree (Section 7.2)", runE3},
		{"E4", "SP-GiST (trie/kd-tree/quadtree) vs B+-tree/R-tree (Section 7.1)", runE4},
		{"E5", "Rectangle vs per-cell annotation storage (Figure 5)", runE5},
		{"E6", "A-SQL annotation propagation vs manual 3-step plan (Section 3)", runE6},
		{"E7", "Dependency cascade and outdated bitmaps (Figures 9-10)", runE7},
		{"E8", "Content-based approval overhead and rollback (Figure 11)", runE8},
		{"E9", "Provenance queries at multiple granularities (Figure 8)", runE9},
		{"E10", "Vectorized scan/filter/aggregate vs row-at-a-time execution", runE10},
		{"E11", "Cost-based join ordering vs syntactic FROM order", runE11},
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.name) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		e.run(*scale)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// mustPrepare / mustStmt load workloads through prepared statements: the
// data-generation loops bind `?` arguments instead of re-parsing an INSERT
// per row, which keeps experiment setup time out of the measured sections.
func mustPrepare(db *bdbms.DB, sql string) *bdbms.Stmt {
	stmt, err := db.Prepare(sql)
	if err != nil {
		panic(err)
	}
	return stmt
}

func mustStmt(stmt *bdbms.Stmt, args ...any) {
	if _, err := stmt.Exec(args...); err != nil {
		panic(err)
	}
}

// --- E1 / E2 / E3: SBC-tree vs String B-tree -----------------------------------------------

func buildSequenceIndexes(n, minLen, maxLen int, meanRun float64, seed int64) ([]string, *sbctree.Index, *stringbtree.Index) {
	gen := biogen.New(seed)
	seqs := gen.SecondaryStructures(n, minLen, maxLen, meanRun)
	sbc := sbctree.New()
	sbt := stringbtree.New()
	for i, s := range seqs {
		sbc.Insert(int64(i+1), s)
		sbt.Insert(int64(i+1), s)
	}
	return seqs, sbc, sbt
}

func runE1(scale float64) {
	fmt.Printf("%-10s %-10s %16s %16s %12s %12s\n", "sequences", "mean-len", "StringBTree(B)", "SBC-tree(B)", "reduction", "pages-ratio")
	for _, cfg := range []struct{ n, minLen, maxLen int }{
		{scaled(500, scale), 256, 512},
		{scaled(2000, scale), 256, 1024},
		{scaled(5000, scale), 512, 1024},
	} {
		_, sbc, sbt := buildSequenceIndexes(cfg.n, cfg.minLen, cfg.maxLen, 14, 11)
		red := float64(sbt.StorageBytes()) / float64(sbc.StorageBytes())
		pr := float64(sbt.EstimatePages(4096)) / float64(sbc.EstimatePages(4096))
		fmt.Printf("%-10d %-10d %16d %16d %11.1fx %11.1fx\n",
			cfg.n, (cfg.minLen+cfg.maxLen)/2, sbt.StorageBytes(), sbc.StorageBytes(), red, pr)
	}
	fmt.Println("paper claim: up to an order of magnitude storage reduction")
}

func runE2(scale float64) {
	fmt.Printf("%-10s %18s %18s %14s\n", "sequences", "StringBTree-writes", "SBC-tree-writes", "I/O-saving")
	for _, n := range []int{scaled(500, scale), scaled(2000, scale), scaled(5000, scale)} {
		_, sbc, sbt := buildSequenceIndexes(n, 256, 1024, 14, 13)
		sw := sbt.IOStats().NodeWrites
		cw := sbc.IOStats().NodeWrites
		saving := 100 * (1 - float64(cw)/float64(sw))
		fmt.Printf("%-10d %18d %18d %13.1f%%\n", n, sw, cw, saving)
	}
	fmt.Println("paper claim: up to 30% fewer I/Os for insertions (shape: SBC-tree <= String B-tree)")
}

func runE3(scale float64) {
	n := scaled(2000, scale)
	seqs, sbc, sbt := buildSequenceIndexes(n, 256, 1024, 14, 17)
	gen := biogen.New(99)
	var patterns []string
	for i := 0; i < 1000; i++ {
		src := seqs[i%len(seqs)]
		start := (i * 37) % (len(src) - 20)
		patterns = append(patterns, src[start:start+6+(i%10)])
	}
	_ = gen
	measure := func(fn func(p string) int) (time.Duration, int) {
		start := time.Now()
		total := 0
		for _, p := range patterns {
			total += fn(p)
		}
		return time.Since(start) / time.Duration(len(patterns)), total
	}
	sbcSub, sbcHits := measure(func(p string) int { return len(sbc.SubstringSearch(p)) })
	sbtSub, sbtHits := measure(func(p string) int {
		ids := map[int64]bool{}
		for _, m := range sbt.SubstringSearch(p) {
			ids[m.SeqID] = true
		}
		return len(ids)
	})
	sbcPre, _ := measure(func(p string) int { return len(sbc.PrefixSearch(p)) })
	sbtPre, _ := measure(func(p string) int { return len(sbt.PrefixSearch(p)) })
	sbcRange, _ := measure(func(p string) int { return len(sbc.RangeSearch(p[:2], "")) })
	sbtRange, _ := measure(func(p string) int { return len(sbt.RangeSearch(p[:2], "")) })

	fmt.Printf("%-22s %16s %16s %10s\n", "operation (1000 queries)", "StringBTree/op", "SBC-tree/op", "agree")
	fmt.Printf("%-22s %16v %16v %10v\n", "substring", sbtSub, sbcSub, sbcHits == sbtHits)
	fmt.Printf("%-22s %16v %16v\n", "prefix", sbtPre, sbcPre)
	fmt.Printf("%-22s %16v %16v\n", "range", sbtRange, sbcRange)
	fmt.Println("paper claim: SBC-tree retains optimal search performance over compressed data")
}

// --- E4: SP-GiST vs B+-tree / R-tree ------------------------------------------------------

func runE4(scale float64) {
	n := scaled(50000, scale)
	gen := biogen.New(7)
	pts := gen.Points(n, 10000)

	kd := spgist.New(spgist.KDTreeOps{})
	quad := spgist.New(spgist.QuadtreeOps{})
	rt := rtree.New()
	for i, p := range pts {
		kd.Insert(spgist.Point{X: p[0], Y: p[1]}, i)
		quad.Insert(spgist.Point{X: p[0], Y: p[1]}, i)
		rt.Insert(rtree.NewPoint(p[0], p[1]), i)
	}
	queries := gen.Points(2000, 10000)
	timeIt := func(fn func()) time.Duration {
		start := time.Now()
		fn()
		return time.Since(start) / time.Duration(len(queries))
	}
	exactKD := timeIt(func() {
		for _, q := range queries {
			kd.Exact(spgist.Point{X: q[0], Y: q[1]})
		}
	})
	exactQuad := timeIt(func() {
		for _, q := range queries {
			quad.Exact(spgist.Point{X: q[0], Y: q[1]})
		}
	})
	exactRT := timeIt(func() {
		for _, q := range queries {
			rt.SearchAll(rtree.NewPoint(q[0], q[1]))
		}
	})
	rangeKD := timeIt(func() {
		for _, q := range queries {
			kd.Search(spgist.RangeQuery{MinX: q[0], MinY: q[1], MaxX: q[0] + 100, MaxY: q[1] + 100})
		}
	})
	rangeRT := timeIt(func() {
		for _, q := range queries {
			rt.SearchAll(rtree.Rect{MinX: q[0], MinY: q[1], MaxX: q[0] + 100, MaxY: q[1] + 100})
		}
	})
	knnKD := timeIt(func() {
		for _, q := range queries {
			_, _ = kd.KNN(spgist.Point{X: q[0], Y: q[1]}, 5)
		}
	})
	knnRT := timeIt(func() {
		for _, q := range queries {
			rt.Nearest(q[0], q[1], 5)
		}
	})

	fmt.Printf("points = %d, 2000 queries each\n", n)
	fmt.Printf("%-14s %14s %14s %14s\n", "operation", "SP-GiST kd", "SP-GiST quad", "R-tree")
	fmt.Printf("%-14s %14v %14v %14v\n", "exact match", exactKD, exactQuad, exactRT)
	fmt.Printf("%-14s %14v %14s %14v\n", "range 100x100", rangeKD, "-", rangeRT)
	fmt.Printf("%-14s %14v %14s %14v\n", "5-NN", knnKD, "-", knnRT)

	// Keyword workload: trie vs B+-tree.
	words := gen.Keywords(n, 12)
	trie := spgist.New(spgist.TrieOps{})
	bt := btree.New(btree.DefaultOrder)
	for i, w := range words {
		trie.Insert(w, i)
		bt.Insert([]byte(w), []byte{byte(i)})
	}
	prefixes := gen.Keywords(2000, 4)
	trieTime := timeIt(func() {
		for _, p := range prefixes {
			trie.Search(spgist.PrefixQuery{Prefix: p[:2]})
		}
	})
	btTime := timeIt(func() {
		for _, p := range prefixes {
			bt.AscendPrefix([]byte(p[:2]), func([]byte, [][]byte) bool { return true })
		}
	})
	regexTime := timeIt(func() {
		for _, p := range prefixes {
			trie.Search(spgist.RegexQuery{Pattern: p[:2] + ".*"})
		}
	})
	btRegexTime := timeIt(func() {
		for _, p := range prefixes {
			// The B+-tree has no native regex support: full scan + match.
			bt.Ascend(func(k []byte, _ [][]byte) bool {
				spgist.MatchSimpleRegex(p[:2]+".*", string(k))
				return true
			})
		}
	})
	fmt.Printf("%-14s %14s %14s %14s\n", "operation", "SP-GiST trie", "", "B+-tree")
	fmt.Printf("%-14s %14v %14s %14v\n", "prefix match", trieTime, "", btTime)
	fmt.Printf("%-14s %14v %14s %14v\n", "regex match", regexTime, "", btRegexTime)
	fmt.Println("paper claim: space-partitioning indexes show performance potential over B+-tree / R-tree")
}

// --- E5: annotation storage schemes ------------------------------------------------------

func runE5(scale float64) {
	rows := scaled(5000, scale)
	cols := 4
	build := func(store annotation.Store) (*bdbms.DB, time.Duration, int, time.Duration) {
		opts := bdbms.Options{}
		if store.Name() == "cell" {
			opts.CellLevelAnnotations = true
		}
		db, _ := bdbms.OpenWith(opts)
		db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GSequence SEQUENCE, Score FLOAT)`)
		db.MustExec(`CREATE ANNOTATION TABLE Ann ON Gene`)
		gen := biogen.New(3)
		ins := mustPrepare(db, `INSERT INTO Gene VALUES (?, ?, ?, ?)`)
		for i := 0; i < rows; i++ {
			mustStmt(ins, biogen.GeneID(i), gen.GeneName(i), gen.DNASequence(16), i%100)
		}
		start := time.Now()
		// Column-level annotation (covers every row), 20 tuple-level
		// annotations and 50 cell-level annotations.
		db.MustExec(`ADD ANNOTATION TO Gene.Ann VALUE '<Annotation>obtained from GenoBase</Annotation>' ON (SELECT GSequence FROM Gene)`)
		for i := 0; i < 20; i++ {
			db.MustExec(fmt.Sprintf(`ADD ANNOTATION TO Gene.Ann VALUE '<Annotation>curated %d</Annotation>' ON (SELECT * FROM Gene WHERE GID = '%s')`, i, biogen.GeneID(i*7%rows)))
		}
		for i := 0; i < 50; i++ {
			db.MustExec(fmt.Sprintf(`ADD ANNOTATION TO Gene.Ann VALUE '<Annotation>note %d</Annotation>' ON (SELECT GName FROM Gene WHERE GID = '%s')`, i, biogen.GeneID(i*3%rows)))
		}
		addTime := time.Since(start)
		start = time.Now()
		res := db.MustExec(`SELECT GID, GSequence FROM Gene ANNOTATION(Ann)`)
		queryTime := time.Since(start)
		_ = res
		return db, addTime, db.Annotations().StorageRecords(), queryTime
	}
	_, rectAdd, rectRecords, rectQuery := build(annotation.NewRectStore())
	_, cellAdd, cellRecords, cellQuery := build(annotation.NewCellStore())
	fmt.Printf("table: %d rows x %d columns, 71 annotations at mixed granularity\n", rows, cols)
	fmt.Printf("%-26s %16s %16s\n", "metric", "rectangle (F.5)", "per-cell (F.3)")
	fmt.Printf("%-26s %16d %16d\n", "storage records", rectRecords, cellRecords)
	fmt.Printf("%-26s %16v %16v\n", "ADD ANNOTATION time", rectAdd, cellAdd)
	fmt.Printf("%-26s %16v %16v\n", "annotated full scan", rectQuery, cellQuery)
	fmt.Printf("record reduction: %.0fx\n", float64(cellRecords)/float64(rectRecords))
}

// --- E6: A-SQL vs the manual three-step plan ----------------------------------------------

func runE6(scale float64) {
	rows := scaled(2000, scale)
	db := bdbms.Open()
	db.MustExec(`CREATE TABLE DB1_Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GSequence SEQUENCE)`)
	db.MustExec(`CREATE TABLE DB2_Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GSequence SEQUENCE)`)
	db.MustExec(`CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene`)
	db.MustExec(`CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene`)
	gen := biogen.New(5)
	ins1 := mustPrepare(db, `INSERT INTO DB1_Gene VALUES (?, ?, ?)`)
	ins2 := mustPrepare(db, `INSERT INTO DB2_Gene VALUES (?, ?, ?)`)
	for i := 0; i < rows; i++ {
		id, name, seq := biogen.GeneID(i), gen.GeneName(i), gen.DNASequence(24)
		mustStmt(ins1, id, name, seq)
		if i%2 == 0 { // half the genes are shared
			mustStmt(ins2, id, name, seq)
		}
	}
	db.MustExec(`ADD ANNOTATION TO DB1_Gene.GAnnotation VALUE '<Annotation>obtained from RegulonDB</Annotation>' ON (SELECT * FROM DB1_Gene)`)
	db.MustExec(`ADD ANNOTATION TO DB2_Gene.GAnnotation VALUE '<Annotation>obtained from GenoBase</Annotation>' ON (SELECT GSequence FROM DB2_Gene)`)

	asql := `SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation)
	         INTERSECT
	         SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)`
	start := time.Now()
	res := db.MustExec(asql)
	asqlTime := time.Since(start)
	annCount := 0
	for _, r := range res.Rows {
		annCount += len(r.AnnotationsFlat())
	}

	// The manual plan of Section 3: (a) intersect the data columns, (b) join
	// back to DB1_Gene for its annotations, (c) join to DB2_Gene and union the
	// annotations — three statements and client-side glue.
	start = time.Now()
	stepA := db.MustExec(`SELECT GID, GName, GSequence FROM DB1_Gene INTERSECT SELECT GID, GName, GSequence FROM DB2_Gene`)
	manualAnn := 0
	for _, r := range stepA.Rows {
		gid := r.Values[0].Text()
		b := db.MustExec(fmt.Sprintf(`SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) WHERE GID = '%s'`, gid))
		c := db.MustExec(fmt.Sprintf(`SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = '%s'`, gid))
		seen := map[int64]bool{}
		for _, rr := range append(b.Rows, c.Rows...) {
			for _, a := range rr.AnnotationsFlat() {
				if !seen[a.ID] {
					seen[a.ID] = true
					manualAnn++
				}
			}
		}
	}
	manualTime := time.Since(start)

	fmt.Printf("common genes: %d of %d\n", len(res.Rows), rows)
	fmt.Printf("%-34s %12s %14s %12s\n", "plan", "statements", "time", "annotations")
	fmt.Printf("%-34s %12d %14v %12d\n", "A-SQL SELECT ... ANNOTATION", 1, asqlTime, annCount)
	fmt.Printf("%-34s %12s %14v %12d\n", "manual steps (a)-(c)", "1+2N", manualTime, manualAnn)
	fmt.Printf("results agree: %v\n", annCount == manualAnn && len(res.Rows) == len(stepA.Rows))
}

// --- E7: dependency cascades and bitmaps ----------------------------------------------------

func runE7(scale float64) {
	fmt.Printf("%-8s %-10s %12s %12s %14s %14s %12s\n",
		"genes", "fan-out", "modified", "recomputed", "marked-stale", "bitmap-raw", "bitmap-rle")
	for _, fanout := range []int{1, 4, 16} {
		genes := scaled(500, scale)
		db := bdbms.Open()
		db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
		db.MustExec(`CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, PFunction TEXT)`)
		db.MustExec(`CREATE INDEX ON Protein (GID)`)
		gen := biogen.New(int64(fanout))
		insGene := mustPrepare(db, `INSERT INTO Gene VALUES (?, ?)`)
		insProt := mustPrepare(db, `INSERT INTO Protein VALUES (?, ?, ?, 'Hypothetical protein')`)
		for i := 0; i < genes; i++ {
			seq := gen.DNASequence(60)
			mustStmt(insGene, biogen.GeneID(i), value.NewSequence(seq))
			for f := 0; f < fanout; f++ {
				mustStmt(insProt, fmt.Sprintf("p%d_%d", i, f), biogen.GeneID(i), value.NewSequence(biogen.Translate(seq)))
			}
		}
		dep := db.Dependencies()
		dep.AddRule(dependency.Rule{
			Sources: []dependency.ColumnRef{{Table: "Gene", Column: "GSequence"}},
			Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PSequence"}},
			Proc: dependency.Procedure{Name: "Prediction tool P", Executable: true,
				Apply: func(in []value.Value) (value.Value, error) {
					return value.NewSequence(biogen.Translate(in[0].Text())), nil
				}},
			Link: &dependency.Link{SourceColumn: "GID", TargetColumn: "GID"},
		})
		dep.AddRule(dependency.Rule{
			Sources: []dependency.ColumnRef{{Table: "Protein", Column: "PSequence"}},
			Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PFunction"}},
			Proc:    dependency.Procedure{Name: "Lab experiment", Executable: false},
		})
		modified := genes / 10
		for i := 0; i < modified; i++ {
			db.MustExec(fmt.Sprintf(`UPDATE Gene SET GSequence = '%s' WHERE GID = '%s'`,
				gen.DNASequence(60), biogen.GeneID(i*10)))
		}
		recomputed, marked := 0, 0
		for _, ev := range dep.Events() {
			if ev.Recomputed {
				recomputed++
			} else {
				marked++
			}
		}
		bm := dep.Bitmap("Protein")
		maxRow := int64(genes * fanout)
		fmt.Printf("%-8d %-10d %12d %12d %14d %13dB %11dB\n",
			genes, fanout, modified, recomputed, marked, bm.RawSize(maxRow), bm.CompressedSize(maxRow))
	}
}

// --- E8: content-based approval --------------------------------------------------------------

func runE8(scale float64) {
	n := scaled(2000, scale)
	run := func(approval bool) (time.Duration, int) {
		db := bdbms.Open()
		db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
		if approval {
			db.MustExec(`START CONTENT APPROVAL ON Gene APPROVED BY labadmin`)
		}
		gen := biogen.New(4)
		start := time.Now()
		for i := 0; i < n; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO Gene VALUES ('%s', '%s')`, biogen.GeneID(i), gen.DNASequence(30)))
		}
		for i := 0; i < n/2; i++ {
			db.MustExec(fmt.Sprintf(`UPDATE Gene SET GSequence = '%s' WHERE GID = '%s'`, gen.DNASequence(30), biogen.GeneID(i)))
		}
		elapsed := time.Since(start)
		pending := 0
		if approval {
			pending = len(db.Authorization().Pending("Gene"))
		}
		return elapsed, pending
	}
	offTime, _ := run(false)
	onTime, pending := run(true)
	fmt.Printf("workload: %d inserts + %d updates\n", n, n/2)
	fmt.Printf("%-30s %14s %14s\n", "configuration", "time", "pending ops")
	fmt.Printf("%-30s %14v %14d\n", "approval OFF", offTime, 0)
	fmt.Printf("%-30s %14v %14d\n", "approval ON", onTime, pending)
	fmt.Printf("logging overhead: %.1f%%\n", 100*(float64(onTime)/float64(offTime)-1))

	// Rollback correctness: disapprove every update and verify the data
	// returns to its pre-update state.
	db := bdbms.Open()
	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
	db.MustExec(`START CONTENT APPROVAL ON Gene APPROVED BY labadmin`)
	db.Authorization().MakeAdmin("labadmin")
	gen := biogen.New(9)
	original := map[string]string{}
	for i := 0; i < 200; i++ {
		seq := gen.DNASequence(30)
		original[biogen.GeneID(i)] = seq
		db.MustExec(fmt.Sprintf(`INSERT INTO Gene VALUES ('%s', '%s')`, biogen.GeneID(i), seq))
	}
	for _, op := range db.Authorization().Pending("Gene") {
		db.Authorization().Approve(op.ID, "labadmin")
	}
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf(`UPDATE Gene SET GSequence = 'N%s' WHERE GID = '%s'`, gen.DNASequence(5), biogen.GeneID(i)))
	}
	admin := db.Session("labadmin")
	for _, op := range db.Authorization().Pending("Gene") {
		if _, err := admin.Exec(fmt.Sprintf("DISAPPROVE OPERATION %d", op.ID)); err != nil {
			panic(err)
		}
	}
	restored := 0
	res := db.MustExec(`SELECT GID, GSequence FROM Gene`)
	for _, r := range res.Rows {
		if original[r.Values[0].Text()] == r.Values[1].Text() {
			restored++
		}
	}
	fmt.Printf("rollback check: %d/200 disapproved updates fully reverted\n", restored)
}

// --- E10: vectorized analytics ----------------------------------------------------------------

func runE10(scale float64) {
	rows := scaled(100000, scale)
	db := bdbms.Open()
	db.MustExec(`CREATE TABLE Events (ID INT NOT NULL PRIMARY KEY, Grp TEXT, Score INT)`)
	ins := mustPrepare(db, `INSERT INTO Events VALUES (?, ?, ?)`)
	for i := 0; i < rows; i++ {
		mustStmt(ins, i+1, fmt.Sprintf("g%03d", i%997), (i*7919)%100003)
	}
	queries := []struct{ name, sql string }{
		{"full-scan aggregate", `SELECT COUNT(*), SUM(Score), MIN(Score), MAX(Score) FROM Events WHERE Score < 50000`},
		{"GROUP BY (997 groups)", `SELECT Grp, COUNT(*), SUM(Score), MAX(Score) FROM Events GROUP BY Grp`},
	}
	fmt.Printf("table: %d rows; both paths return identical results\n", rows)
	fmt.Printf("%-24s %14s %14s %10s %8s\n", "query", "row-at-a-time", "vectorized", "speedup", "agree")
	for _, q := range queries {
		run := func(noVec bool) (time.Duration, int) {
			s := db.Session("bench")
			s.NoVectorize = noVec
			// One warm-up execution: the first vectorized scan pays the
			// one-time columnar mirror build, which is amortized in steady
			// state and would otherwise skew a cold measurement.
			if _, err := s.Exec(q.sql); err != nil {
				panic(err)
			}
			const reps = 3
			start := time.Now()
			n := 0
			for r := 0; r < reps; r++ {
				res, err := s.Exec(q.sql)
				if err != nil {
					panic(err)
				}
				n = len(res.Rows)
			}
			return time.Since(start) / reps, n
		}
		vecTime, vecRows := run(false)
		rowTime, rowRows := run(true)
		fmt.Printf("%-24s %14v %14v %9.1fx %8v\n",
			q.name, rowTime, vecTime, float64(rowTime)/float64(vecTime), vecRows == rowRows)
	}
	fmt.Println("batch engine: column-major batches through scan, filter and hash aggregation")
}

// --- E11: cost-based join ordering ------------------------------------------------------------

func runE11(scale float64) {
	factRows := scaled(100000, scale)
	db := bdbms.Open()
	db.MustExec(`CREATE TABLE Fact (FID INT NOT NULL PRIMARY KEY, D1 TEXT, D2 TEXT, V INT)`)
	db.MustExec(`CREATE TABLE Dim1 (D1ID INT NOT NULL PRIMARY KEY, Cat TEXT, Name TEXT)`)
	db.MustExec(`CREATE TABLE Dim2 (D2ID TEXT NOT NULL PRIMARY KEY, Tag TEXT)`)
	ins := mustPrepare(db, `INSERT INTO Fact VALUES (?, ?, ?, ?)`)
	for i := 0; i < factRows; i++ {
		mustStmt(ins, i, fmt.Sprintf("A%03d", i%100), fmt.Sprintf("B%03d", i%100), i%7919)
	}
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO Dim1 VALUES (%d, 'A%03d', 'attr%d')`, i, i%100, i))
	}
	for i := 0; i < 100; i++ {
		tag := "cold"
		if i == 42 {
			tag = "hot"
		}
		db.MustExec(fmt.Sprintf(`INSERT INTO Dim2 VALUES ('B%03d', '%s')`, i, tag))
	}
	// Build the planner statistics once so both modes plan from one snapshot.
	for _, q := range []string{
		`SELECT COUNT(*) FROM Fact WHERE V = -1`,
		`SELECT COUNT(*) FROM Dim1 WHERE Name = ''`,
		`SELECT COUNT(*) FROM Dim2 WHERE Tag = ''`,
	} {
		db.MustExec(q)
	}
	query := `SELECT d1.Name, f.V FROM Fact f, Dim1 d1, Dim2 d2 WHERE f.D1 = d1.Cat AND f.D2 = d2.D2ID AND d2.Tag = 'hot'`
	fmt.Printf("star: Fact %d rows x Dim1 1000 (10 per category) x Dim2 100 (one 'hot')\n", factRows)
	for _, mode := range []string{"syntactic", "cost-based"} {
		s := db.Session("bench")
		s.NoReorder = mode == "syntactic"
		res, err := s.Exec("EXPLAIN " + query)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s plan:\n", mode)
		for _, r := range res.Rows {
			fmt.Printf("  %s\n", r.Values[0].Text())
		}
	}
	run := func(noReorder bool) (time.Duration, int) {
		s := db.Session("bench")
		s.NoReorder = noReorder
		const reps = 3
		start := time.Now()
		n := 0
		for r := 0; r < reps; r++ {
			res, err := s.Exec(query)
			if err != nil {
				panic(err)
			}
			n = len(res.Rows)
		}
		return time.Since(start) / reps, n
	}
	synTime, synRows := run(true)
	costTime, costRows := run(false)
	fmt.Printf("%-24s %14s %14s %10s %8s\n", "query", "syntactic", "cost-based", "speedup", "agree")
	fmt.Printf("%-24s %14v %14v %9.1fx %8v\n",
		"3-way star join", synTime, costTime, float64(synTime)/float64(costTime), synRows == costRows)
	fmt.Println("ordering: selective dimension joined first, bounding every intermediate result")
}

// --- E9: provenance ---------------------------------------------------------------------------

func runE9(scale float64) {
	rows := scaled(2000, scale)
	db := bdbms.Open()
	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GName TEXT, GSequence SEQUENCE)`)
	gen := biogen.New(6)
	ins := mustPrepare(db, `INSERT INTO Gene VALUES (?, ?, ?)`)
	for i := 0; i < rows; i++ {
		mustStmt(ins, biogen.GeneID(i), gen.GeneName(i), gen.DNASequence(20))
	}
	prov := db.Provenance()
	prov.RegisterAgent("integrator")
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	start := time.Now()
	// Whole-table copy from S1, column overwrite from S3, per-row updates by P1.
	prov.Attach("integrator", "Gene",
		provenance.Record{Source: "S1", Action: provenance.ActionCopy, Time: base},
		[]annotation.Region{annotation.RowsRegion("Gene", 1, int64(rows), 3)})
	prov.Attach("integrator", "Gene",
		provenance.Record{Source: "S3", Action: provenance.ActionOverwrite, Time: base.AddDate(0, 1, 0)},
		[]annotation.Region{annotation.ColumnRegion("Gene", 2, int64(rows))})
	for i := 0; i < rows/10; i++ {
		prov.Attach("integrator", "Gene",
			provenance.Record{Program: "P1", Action: provenance.ActionUpdate, Time: base.AddDate(0, 2, i%28)},
			[]annotation.Region{annotation.CellRegion("Gene", int64(i*10+1), 2)})
	}
	attachTime := time.Since(start)

	start = time.Now()
	correct := 0
	for i := 0; i < rows; i++ {
		e, err := prov.SourceAt("Gene", int64(i+1), 2, base.AddDate(0, 6, 0))
		if err != nil {
			continue
		}
		if (i%10 == 0 && e.Record.Program == "P1") || (i%10 != 0 && e.Record.Source == "S3") {
			correct++
		}
	}
	lookupTime := time.Since(start) / time.Duration(rows)
	fmt.Printf("table: %d rows; provenance records: %d (table copy + column overwrite + %d cell updates)\n",
		rows, 2+rows/10, rows/10)
	fmt.Printf("attach time total: %v\n", attachTime)
	fmt.Printf("SourceAt latency per cell: %v\n", lookupTime)
	fmt.Printf("SourceAt answers matching the expected lineage: %d/%d\n", correct, rows)
}
