package trace

import "testing"

// A synthetic tree: root [0,100] with children [10,30] and [40,90], the
// second with a child [50,60].
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "a", Start: 10, End: 30, Parent: 0, Op: 1},
		{Name: "b", Start: 40, End: 90, Parent: 0, Op: 1},
		{Name: "c", Start: 50, End: 60, Parent: 2, Op: 1},
	}
	want := []int64{30, 20, 40, 10}
	for i, got := range SelfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	var total int64
	for _, s := range SelfTimes(spans) {
		total += s
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestOverlappingChildrenCountOnce(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 40, End: 80, Parent: 0},
	}
	if got := SelfTimes(spans)[0]; got != 30 {
		t.Fatalf("root self time = %d, want 30", got)
	}
}

func TestRecorderNestsAndNumbersOperations(t *testing.T) {
	r := New(8)
	for op := 0; op < 2; op++ {
		r.Begin("op")
		r.Begin("inner")
		r.End()
		r.End()
	}
	s := r.Spans()
	if len(s) != 4 || s[1].Parent != 0 || s[3].Parent != 2 || s[0].Op == s[2].Op || s[2].Op != s[3].Op {
		t.Fatalf("unexpected spans: %+v", s)
	}
	var none *Recorder
	none.Begin("x") // a nil recorder records nothing and must not panic
	none.End()
	if sum := Summarize(s); sum["op"].Count != 2 || sum["inner"].Count != 2 {
		t.Fatalf("summary: %+v", sum)
	}
}
