// Package trace records spans around the calls the benchmark makes into the
// engine's layers. Spans stay in memory until the workload ends and are then
// written out as JSON; a layer's self time is its span's duration minus the
// part of that interval its child spans cover.
//
// A Recorder is used by one goroutine. A nil *Recorder records nothing, so
// the untraced run pays one nil check per call site.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one recorded interval. Parent is the index of the span that caused
// it, or -1 for a root; spans of one operation share Op.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// Recorder collects spans in memory.
type Recorder struct {
	base  time.Time
	spans []Span
	open  int32 // index of the innermost open span, -1 when none
	op    int32
}

// New returns a recorder with room for capacity spans before it reallocates.
func New(capacity int) *Recorder {
	return &Recorder{base: time.Now(), spans: make([]Span, 0, capacity), open: -1}
}

// Begin opens a span under the innermost open span. A span opened at the
// root starts a new operation.
func (r *Recorder) Begin(name string) {
	if r == nil {
		return
	}
	if r.open < 0 {
		r.op++
	}
	r.spans = append(r.spans, Span{Name: name, Start: int64(time.Since(r.base)), Parent: r.open, Op: r.op})
	r.open = int32(len(r.spans) - 1)
}

// End closes the innermost open span.
func (r *Recorder) End() {
	if r == nil {
		return
	}
	s := &r.spans[r.open]
	s.End = int64(time.Since(r.base))
	r.open = s.Parent
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteFile writes the spans as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns, for each span, its duration minus the part covered by
// its children, in nanoseconds. Children that overlap one another are
// counted once.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, until), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// Summary is the per-name digest of a span set: how many spans, and the
// medians of their durations and self times in microseconds.
type Summary struct {
	Count  int
	P50us  float64
	Selfus float64
}

// Summarize groups spans by name.
func Summarize(spans []Span) map[string]Summary {
	self := SelfTimes(spans)
	durs := make(map[string][]int64)
	selfs := make(map[string][]int64)
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.End-s.Start)
		selfs[s.Name] = append(selfs[s.Name], self[i])
	}
	out := make(map[string]Summary, len(durs))
	for name, d := range durs {
		out[name] = Summary{Count: len(d), P50us: medianUs(d), Selfus: medianUs(selfs[name])}
	}
	return out
}

func medianUs(v []int64) float64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[len(v)/2]) / 1e3
}
