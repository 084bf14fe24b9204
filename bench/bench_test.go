package main

import (
	"bytes"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecIsWithinTheContract(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the spec, %d in the program", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the spec, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// Every workload at a hundredth of its size: each run must pass its oracle
// and report exactly the spec's metrics, each once, with the spec's unit.
func TestSmokeEmitsEveryMetricOfTheSpec(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []int{0, 1} {
		want := sp.EndToEnd
		if traced == 1 {
			want = sp.PerLayer
		}
		for _, w := range workloads {
			c := config{seed: 3, seconds: 0.1, trace: traced, scale: 0.01, dir: t.TempDir()}
			var log bytes.Buffer
			out, err := runWorkload(c, w.name, &log)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, traced, err, log.String())
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.name, traced, out.Correct, out.Attempted, out.Failed, log.String())
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics reported, spec lists %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s reported as %+v (present %v), spec unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31.0 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.10}
	higher := specMetric{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b cells
		m    specMetric
		want string
	}{
		{cells{Median: 100, Spread: 0.02}, cells{Median: 105, Spread: 0.02}, lower, "unchanged"},
		{cells{Median: 100, Spread: 0.02}, cells{Median: 115, Spread: 0.02}, lower, "regressed"},
		{cells{Median: 100, Spread: 0.02}, cells{Median: 85, Spread: 0.02}, lower, "improved"},
		{cells{Median: 100, Spread: 0.02}, cells{Median: 85, Spread: 0.02}, higher, "regressed"},
		{cells{Median: 100, Spread: 0.02}, cells{Median: 115, Spread: 0.02}, higher, "improved"},
		{cells{Median: 100, Spread: 0.12}, cells{Median: 115, Spread: 0.02}, lower, "unresolved"},
	} {
		if got := verdict(&c.a, &c.b, c.m); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.a.Median, c.b.Median, c.m.Better, got, c.want)
		}
	}
}

func TestGofmtClean(t *testing.T) {
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil {
		t.Skipf("gofmt not runnable: %v", err)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Errorf("gofmt -l lists:\n%s", files)
	}
}
