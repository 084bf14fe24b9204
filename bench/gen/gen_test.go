package gen

import (
	"bytes"
	"testing"
)

func encodeTail(seed int64) []byte {
	var b []byte
	for _, m := range Tail(seed, 5000, TailLen) {
		b = m.Encode(b)
	}
	return b
}

// The recover_s tail must be the same work on every run of a seed.
func TestTailIsByteIdenticalForOneSeed(t *testing.T) {
	a, b := encodeTail(7), encodeTail(7)
	if !bytes.Equal(a, b) {
		t.Fatal("two tails of seed 7 differ")
	}
	if len(a) != TailLen*9 {
		t.Fatalf("tail encodes to %d bytes, want %d", len(a), TailLen*9)
	}
	if bytes.Equal(a, encodeTail(8)) {
		t.Fatal("seeds 7 and 8 give the same tail")
	}
}

// A delete in the tail must name a row an earlier tail insert created.
func TestTailDeletesOnlyWhatItInserted(t *testing.T) {
	live := map[int32]bool{}
	for i, m := range Tail(3, 2000, TailLen) {
		switch m.Kind {
		case Insert:
			live[m.GID] = true
		case Delete:
			if !live[m.GID] {
				t.Fatalf("mutation %d deletes GID %d, which is not live", i, m.GID)
			}
			delete(live, m.GID)
		case AddAnn:
			if int(m.GID)+AnnRegionRows > 2000 {
				t.Fatalf("mutation %d annotates past the loaded rows", i)
			}
		}
	}
}

// The model's running totals must equal a recount from scratch.
func TestGeneModelTotalsMatchRecount(t *testing.T) {
	g := NewGenes(11)
	m := NewGeneModel(g, 3000)
	m.LoadAnnotations(50)
	scores := map[int32]int{}
	for gid := 0; gid < 3000; gid++ {
		scores[int32(gid)] = g.Score(gid, 0)
	}
	anns, seqRows := 50, map[int32]bool{}
	for _, mu := range Tail(11, 3000, 4000) {
		m.Apply(mu, true, true)
		switch mu.Kind {
		case UpdScore, Insert:
			scores[mu.GID] = g.Score(int(mu.GID), int(mu.Ver))
			if mu.Kind == Insert {
				seqRows[mu.GID] = true
			}
		case Delete:
			delete(scores, mu.GID)
		case UpdSeq:
			seqRows[mu.GID] = true
		case AddAnn:
			anns++
		}
	}
	var sum int64
	for _, s := range scores {
		sum += int64(s)
	}
	if m.Rows != len(scores) || m.SumScore != sum || m.Anns != anns || m.Outdated != len(seqRows) {
		t.Fatalf("model rows %d sum %d anns %d outdated %d, recount %d %d %d %d",
			m.Rows, m.SumScore, m.Anns, m.Outdated, len(scores), sum, anns, len(seqRows))
	}
}

func TestAnalyticsOraclesAgree(t *testing.T) {
	a := NewAnalytics(5, 5000, 4000)
	a.Update(17, 3)
	a.Append(4)
	all := a.Q1(ScoreMod)
	var groups Agg
	for _, g := range a.Q2() {
		groups.Count += g.Count
		groups.Sum += g.Sum
	}
	if all != groups || all.Count != 5001 {
		t.Fatalf("Q1 over everything %+v, Q2 summed %+v", all, groups)
	}
	if top := a.Q4(10); top[0] < top[9] {
		t.Fatalf("Q4 not descending: %v", top)
	}
	if q3 := a.Q3(); q3.Count != 4000/Dim2Rows*(Dim1Rows/Cats) {
		t.Fatalf("Q3 count %d", q3.Count)
	}
}
