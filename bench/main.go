// Command bench is the repository's benchmark: four workloads, each checked
// against an oracle, eleven end-to-end metrics per workload, and a separate
// traced run that measures the layers from outside. See README.md.
//
//	bench --workload oltp_wire --seed 1 --seconds 12 --trace 0
//
// prints every metric by name and unit, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without --workload it runs
// all four. --repeat N and --compare a.json b.json study run-to-run noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// workloads lists the four workloads in reporting order.
var workloads = []struct {
	name string
	new  func(e *env) workload
}{
	{"oltp_wire", func(e *env) workload { return newOLTPWire(e) }},
	{"durable_ingest", func(e *env) workload { return newDurableIngest(e) }},
	{"analytics", func(e *env) workload { return newAnalytics(e) }},
	{"curation_htap", func(e *env) workload { return newCurationHTAP(e) }},
}

// endToEndUnits names the end-to-end metrics every untraced run reports.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_tail_us": "us",
	"cpu_us_per_op": "us", "alloc_kb_per_op": "kB", "live_heap_mb": "MB",
	"reopen_s": "s", "recover_s": "s", "write_amp": "x", "space_amp": "x",
}

// output is the last line a run prints.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	dir      string
	spec     string
	repeat   int
	compare  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run (default: all four)")
	fs.Int64Var(&c.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&c.seconds, "seconds", 12, "length of the timed window")
	fs.IntVar(&c.trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.Float64Var(&c.scale, "scale", 1, "data-size factor; below 1 only for tests")
	fs.StringVar(&c.dir, "dir", filepath.Join("bench", "out"), "scratch and trace directory")
	fs.StringVar(&c.spec, "spec", "BENCHMARK.json", "benchmark definition, for --compare and --repeat")
	fs.IntVar(&c.repeat, "repeat", 0, "run every workload N times, seeds seed..seed+N-1, and write the noise study")
	fs.BoolVar(&c.compare, "compare", false, "compare two noise studies: --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case c.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two noise files")
			return 2
		}
		return compareStudies(c, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case c.repeat > 0:
		return repeatStudy(c, stdout, stderr)
	}

	// Set, not inherited: the numbers must not depend on the caller's
	// GOGC or GOMAXPROCS.
	debug.SetGCPercent(100)
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	names := []string{c.workload}
	if c.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		out, err := runWorkload(c, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printMetrics(stdout, name, out.Metrics)
		line, _ := json.Marshal(out)
		fmt.Fprintf(stdout, "%s\n", line)
		if !out.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload, traced or not, in its own scratch directory
// and removes the directory afterwards.
func runWorkload(c config, name string, log io.Writer) (*output, error) {
	var mk func(e *env) workload
	for _, w := range workloads {
		if w.name == name {
			mk = w.new
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload (want oltp_wire, durable_ingest, analytics or curation_htap)")
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(c.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{dir: scratch, seed: c.seed, seconds: c.seconds, scale: c.scale, traced: c.trace != 0, tally: &tally{}, log: log}
	w := mk(e)
	var m metrics
	if c.trace != 0 {
		m, err = traced(e, w, filepath.Join(c.dir, "trace-"+name+".json"))
	} else {
		m, err = endToEnd(e, w)
	}
	if err != nil {
		return nil, err
	}
	out := &output{Attempted: e.tally.attempted.Load(), Failed: e.tally.failed.Load(), Metrics: m}
	out.Correct = out.Failed == 0
	if msg := e.tally.firstErr.Load(); msg != nil {
		fmt.Fprintf(log, "bench: %s: first failed operation: %s\n", name, *msg)
	}
	return out, nil
}

func printMetrics(w io.Writer, workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-16s %-36s %14.4f %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}
