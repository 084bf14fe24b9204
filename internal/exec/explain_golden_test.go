package exec

// EXPLAIN goldens: the rendered plan of a representative statement per
// planner feature, pinned byte-for-byte under testdata/explain. The fixture
// is fully deterministic (seeded data, lazy stats over a fixed heap), so any
// diff is a real plan or renderer change. Regenerate intentionally with
//
//	go test ./internal/exec -run TestExplainGoldens -update
//
// and review the diff like code.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the EXPLAIN goldens under testdata/explain")

// runExplain executes an EXPLAIN statement through the full statement path
// (parse, dispatch, render) and joins the plan rows.
func runExplain(t *testing.T, s *Session, sql string) string {
	t.Helper()
	res := mustExec(t, s, sql)
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN columns = %v, want [plan]", res.Columns)
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r.Values[0].Text())
	}
	return strings.Join(lines, "\n") + "\n"
}

func TestExplainGoldens(t *testing.T) {
	s := newSession(t)
	buildJoinFixture(t, s, 40, 120)
	cases := []struct {
		name    string
		sql     string
		noStats bool
	}{
		// Point lookup through the primary key index.
		{"point_lookup", `EXPLAIN SELECT * FROM Gene WHERE GID = 'G001'`, false},
		// Range predicate on a secondary index, estimated from Min/Max.
		{"index_range", `EXPLAIN SELECT GName FROM Gene WHERE Score > 3 AND Score < 9`, false},
		// The same range with its bounds left to the arguments: the same probe,
		// marked " ?", estimated at the default selectivity.
		{"index_range_param", `EXPLAIN SELECT GName FROM Gene WHERE Score > ? AND Score < ?`, false},
		// Ascending ORDER BY on an indexed NOT NULL column: no Sort operator.
		{"sort_elision", `EXPLAIN SELECT GID, Score FROM Gene ORDER BY GID`, false},
		// ORDER BY + small LIMIT on an unindexed column: bounded heap.
		{"topn", `EXPLAIN SELECT * FROM Gene ORDER BY GName LIMIT 3`, false},
		// LIMIT that keeps everything: the full sort wins over the heap.
		{"sort_wide_limit", `EXPLAIN SELECT * FROM Gene ORDER BY GName LIMIT 500`, false},
		// Unselective equi-join: both sides stay large, so the hash join
		// keeps its build side (the smaller, already-filtered right input).
		{"join_hash", `EXPLAIN SELECT g.GName, p.PLen FROM Gene g, Protein p WHERE g.GID = p.GID AND p.PLen < 100`, false},
		// Three-way join with a selective probe: the cost-based order starts
		// from the one-row Protein lookup, not the syntactic Lab scan, and
		// restores the syntactic row order above the joins.
		{"join_build_side", `EXPLAIN SELECT g.GName FROM Lab l, Gene g, Protein p WHERE l.GID = g.GID AND g.GID = p.GID AND p.PID = 'P003'`, false},
		// Same join without statistics: raw row counts, default
		// selectivities, [no stats] markers.
		{"stats_missing", `EXPLAIN SELECT g.GName FROM Lab l, Gene g, Protein p WHERE l.GID = g.GID AND g.GID = p.GID AND p.PID = 'P003'`, true},
		// Mutations render the pipeline of their read phase.
		{"delete_range", `EXPLAIN DELETE FROM Gene WHERE Score > 40`, false},
		{"update_point", `EXPLAIN UPDATE Gene SET GName = 'x' WHERE GID = 'G001'`, false},
		// A conjunct the planner cannot resolve is evaluated (and fails) at
		// execution, so the mutation's plan shows it like a SELECT's would.
		{"update_residual", `EXPLAIN UPDATE Gene SET Score = 1 WHERE Nope > 50`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s.NoStats = tc.noStats
			defer func() { s.NoStats = false }()
			got := runExplain(t, s, tc.sql)
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN output drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
