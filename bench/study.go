package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the studies read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// study is a noise study: for every workload and end-to-end metric the
// values of N runs with N seeds, their median, and their spread — the
// distance between the first and third quartile as a share of the median,
// the statistic the benchmark's bounds are judged by.
type study struct {
	Seeds   []int64                      `json:"seeds"`
	Seconds float64                      `json:"seconds"`
	Metrics map[string]map[string]*cells `json:"metrics"` // workload -> metric -> cells
}

type cells struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
}

// quartiles returns the first quartile, the median and the third quartile by
// the exclusive method, as Python's statistics.quantiles(v, n=4) does.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		switch {
		case pos < 0:
			return s[0]
		case lo >= len(s)-1:
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// repeatStudy runs every workload c.repeat times, each run a fresh process
// with its own seed as the driver does, and writes noise.json and noise.md
// next to the scratch directory.
func repeatStudy(c config, stdout, stderr io.Writer) int {
	sp, err := readSpec(c.spec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	st := &study{Seconds: c.seconds, Metrics: make(map[string]map[string]*cells)}
	for i := 0; i < c.repeat; i++ {
		st.Seeds = append(st.Seeds, c.seed+int64(i))
	}
	for _, seed := range st.Seeds {
		for _, w := range sp.Workloads {
			if c.workload != "" && c.workload != w.Name {
				continue
			}
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--trace", "0",
				"--scale", strconv.FormatFloat(c.scale, 'g', -1, 64), "--dir", c.dir)
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			out, err := lastLine(raw)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			if st.Metrics[w.Name] == nil {
				st.Metrics[w.Name] = make(map[string]*cells)
			}
			for name, m := range out.Metrics {
				cell := st.Metrics[w.Name][name]
				if cell == nil {
					cell = &cells{Unit: m.Unit}
					st.Metrics[w.Name][name] = cell
				}
				cell.Values = append(cell.Values, m.Value)
			}
			fmt.Fprintf(stdout, "seed %d %s done\n", seed, w.Name)
		}
	}
	for _, byMetric := range st.Metrics {
		for _, cell := range byMetric {
			if len(cell.Values) > 1 {
				q1, q2, q3 := quartiles(cell.Values)
				cell.Median, cell.Spread = q2, (q3-q1)/q2
			} else {
				cell.Median = cell.Values[0]
			}
		}
	}
	data, err := json.MarshalIndent(st, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(filepath.Dir(c.dir), "noise.json"), append(data, '\n'), 0o644)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(filepath.Dir(c.dir), "noise.md"), []byte(noiseTable(sp, st)), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, noiseTable(sp, st))
	return 0
}

// lastLine parses the result object a run prints last.
func lastLine(raw []byte) (*output, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("run was not correct: %d of %d operations failed", out.Failed, out.Attempted)
	}
	return &out, nil
}

// noiseTable renders the study: per metric its bound, and per workload the
// median with the spread in percent beneath the bound it must stay under.
func noiseTable(sp *spec, st *study) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Runs per workload: %d (seeds %d..%d), window %g s. Each cell is the median and, in brackets, the spread: (Q3 - Q1) / median.\n\n",
		len(st.Seeds), st.Seeds[0], st.Seeds[len(st.Seeds)-1], st.Seconds)
	b.WriteString("| metric | unit | bound |")
	for _, w := range sp.Workloads {
		fmt.Fprintf(&b, " %s |", w.Name)
	}
	b.WriteString("\n|---|---|---|")
	for range sp.Workloads {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %.0f %% |", m.Name, m.Unit, m.Bound*100)
		for _, w := range sp.Workloads {
			if cell := st.Metrics[w.Name][m.Name]; cell != nil {
				fmt.Fprintf(&b, " %.4g (%.1f %%) |", cell.Median, cell.Spread*100)
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// compareStudies judges study b against study a by the bounds of
// BENCHMARK.json: for every end-to-end metric and workload, improved or
// regressed when b's median differs from a's by more than the bound,
// unresolved when either side's spread is wider than the bound, unchanged
// otherwise. It exits non-zero when anything regressed or is unresolved.
func compareStudies(c config, pathA, pathB string, stdout, stderr io.Writer) int {
	sp, err := readSpec(c.spec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var a, b study
	for path, st := range map[string]*study{pathA: &a, pathB: &b} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, st)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 1
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			ca, cb := a.Metrics[w.Name][m.Name], b.Metrics[w.Name][m.Name]
			if ca == nil || cb == nil {
				continue
			}
			v := verdict(ca, cb, m)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, ca.Median, cb.Median, (cb.Median-ca.Median)/ca.Median*100, m.Bound*100, v)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func verdict(a, b *cells, m specMetric) string {
	if a.Spread > m.Bound || b.Spread > m.Bound {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case worse < -m.Bound:
		return "improved"
	}
	return "unchanged"
}
