// Package layers holds the benchmark's direct calls into the engine's
// layers: one file per layer, each calling only that layer's exported
// functions with inputs sampled from a workload. Together the files are the
// frozen-API list — the signatures a later change cannot alter without a
// benchmark change of its own (README.md lists them). The end-to-end run
// does not use this package, except for AddSeqScoreRule.
package layers

import (
	"sort"
	"time"
)

// MedianUs calls fn n times, timing each call, and returns the median in
// microseconds.
func MedianUs(n int, fn func(i int)) float64 { return MedianAfter(n, nil, fn) }

// MedianAfter is MedianUs with an untimed step before every call: the writes
// a workload interleaves with the reads being timed.
func MedianAfter(n int, before, fn func(i int)) float64 {
	if n <= 0 {
		return 0
	}
	took := make([]int64, n)
	for i := range took {
		if before != nil {
			before(i)
		}
		start := time.Now()
		fn(i)
		took[i] = int64(time.Since(start))
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return float64(took[n/2]) / 1e3
}
