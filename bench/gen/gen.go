// Package gen builds every input of the benchmark from a seed, before any
// timed window opens, together with the oracles the results are checked
// against. The oracles are models kept in plain Go arrays and advanced by the
// same generated mutations the engine receives; nothing here reads engine
// state, so a result that matches the oracle was computed by the engine and
// predicted by arithmetic, not copied from one to the other.
package gen

import (
	"math/rand"
	"sort"
	"strconv"
)

// Families is the number of distinct Gene.Family values (the secondary
// index's key count).
const Families = 500

// SeqLen is the length of every Gene.Seq value.
const SeqLen = 64

// AnnRegionRows is the number of consecutive rows one annotation covers.
const AnnRegionRows = 20

// mix is the splitmix64 finalizer over three words: a cheap stateless hash
// that makes row i's content a pure function of (seed, i, version).
func mix(a, b, c uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1) + 0xbf58476d1ce4e5b9*(c+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Genes generates Gene rows: (GID INT, Name TEXT, Family TEXT, Score INT,
// Seq SEQUENCE). A cell's value depends on the seed, the GID and the version
// of the mutation that last wrote it (0 for the load).
type Genes struct{ seed uint64 }

// NewGenes returns the row generator of a seed.
func NewGenes(seed int64) Genes { return Genes{seed: uint64(seed)} }

var familyNames = func() []string {
	names := make([]string, Families)
	for i := range names {
		names[i] = "F" + pad(i, 3)
	}
	return names
}()

func pad(n, width int) string {
	s := strconv.Itoa(n)
	for len(s) < width {
		s = "0" + s
	}
	return s
}

// Family returns the family of a GID; it never changes.
func (g Genes) Family(gid int) string { return familyNames[gid%Families] }

// Score returns the score written by mutation version ver, in [0, 1000).
func (g Genes) Score(gid, ver int) int { return int(mix(g.seed, uint64(gid), uint64(ver)*4+1) % 1000) }

// Name returns the name written by version ver. Its length varies with the
// hash (12 to 19 bytes), so row sizes differ a little from seed to seed.
func (g Genes) Name(gid, ver int) string {
	h := mix(g.seed, uint64(gid), uint64(ver)*4+2)
	b := make([]byte, 0, 20)
	b = append(b, "gene"...)
	b = append(b, pad(gid, 8)...)
	for n := int(h % 8); n > 0; n-- {
		h >>= 5
		b = append(b, 'a'+byte(h%26))
	}
	return string(b)
}

// Seq returns the 64-base DNA sequence written by version ver.
func (g Genes) Seq(gid, ver int) string {
	b := make([]byte, SeqLen)
	for w := 0; w < SeqLen/32; w++ {
		h := mix(g.seed, uint64(gid), uint64(ver)*4+3+uint64(w)<<32)
		for i := 0; i < 32; i++ {
			b[w*32+i] = "ACGT"[h&3]
			h >>= 2
		}
	}
	return string(b)
}

// GeneRow is one generated row, ready to bind.
type GeneRow struct {
	GID    int
	Name   string
	Family string
	Score  int
	Seq    string
}

// Row returns the load-time (version 0) row of a GID.
func (g Genes) Row(gid int) GeneRow { return g.RowAt(gid, 0) }

// RowAt returns the row an INSERT mutation of version ver writes.
func (g Genes) RowAt(gid, ver int) GeneRow {
	return GeneRow{GID: gid, Name: g.Name(gid, ver), Family: g.Family(gid), Score: g.Score(gid, ver), Seq: g.Seq(gid, ver)}
}

// UserBytes is the logical size of a row: 8 bytes per INT, the byte length
// of each text. It is the denominator of write_amp and space_amp, fixed by
// the generator and independent of how the engine encodes rows.
func (r GeneRow) UserBytes() int64 { return int64(8 + len(r.Name) + len(r.Family) + 8 + len(r.Seq)) }

// MutKind names one kind of generated mutation on Gene.
type MutKind uint8

const (
	UpdScore MutKind = iota // UPDATE Gene SET Score = ? WHERE GID = ?
	UpdSeq                  // UPDATE Gene SET Seq = ? WHERE GID = ?
	UpdName                 // UPDATE Gene SET Name = ? WHERE GID = ?
	Insert                  // INSERT INTO Gene VALUES (...)
	Delete                  // DELETE FROM Gene WHERE GID = ?
	AddAnn                  // ADD ANNOTATION ... ON (SELECT Seq FROM Gene WHERE GID >= ? AND GID <= ?)
)

// Mut is one generated mutation. Ver selects the value written (see Genes);
// an AddAnn covers rows GID..GID+AnnRegionRows-1.
type Mut struct {
	Kind MutKind
	GID  int32
	Ver  int32
}

// Encode appends the mutation's fixed-width encoding, used by the test that
// proves a seed always yields the same tail.
func (m Mut) Encode(dst []byte) []byte {
	return append(dst, byte(m.Kind),
		byte(m.GID), byte(m.GID>>8), byte(m.GID>>16), byte(m.GID>>24),
		byte(m.Ver), byte(m.Ver>>8), byte(m.Ver>>16), byte(m.Ver>>24))
}

// TailLen is the number of mutations in the deterministic tail applied after
// set-up: the redo work of every recover_s measurement.
const TailLen = 10000

// Tail returns the fixed mutation tail over a table loaded with baseRows
// rows: of every 20 mutations 10 update Score, 3 insert, 2 update Seq, 2
// update Name, 1 deletes an earlier tail insert, 1 adds an annotation and 1
// more updates Score. Updates and annotations touch only loaded rows, so the
// tail is valid whatever a window did above baseRows; its inserts take the
// GIDs from baseRows up, window inserts start far above (see CuratorBase).
func Tail(seed int64, baseRows, n int) []Mut {
	r := rand.New(rand.NewSource(seed ^ 0x7a11))
	muts := make([]Mut, 0, n)
	nextInsert, nextDelete := baseRows, baseRows
	for i := 0; len(muts) < n; i++ {
		ver := int32(i + 1)
		m := Mut{Ver: ver, GID: int32(r.Intn(baseRows))}
		switch slot := i % 20; {
		case slot < 10 || slot == 19:
			m.Kind = UpdScore
		case slot < 13:
			m.Kind, m.GID = Insert, int32(nextInsert)
			nextInsert++
		case slot < 15:
			m.Kind = UpdSeq
		case slot < 17:
			m.Kind = UpdName
		case slot == 17:
			m.Kind, m.GID = Delete, int32(nextDelete)
			nextDelete++
		default:
			m.Kind, m.GID = AddAnn, int32(r.Intn(baseRows-AnnRegionRows))
		}
		muts = append(muts, m)
	}
	return muts
}

// CuratorBase is the first GID the curation_htap curator inserts.
const CuratorBase = 2_000_000

// CuratorOps returns n curator writes rotating Seq update, Name update,
// annotation, insert — the four bookkeeping paths (dependency cascade,
// approval log, annotation store, plain insert) in equal shares.
func CuratorOps(seed int64, baseRows, n int) []Mut {
	r := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	muts := make([]Mut, n)
	for i := range muts {
		m := Mut{Ver: int32(TailLen + 1 + i), GID: int32(r.Intn(baseRows - AnnRegionRows))}
		switch i % 4 {
		case 0:
			m.Kind = UpdSeq
		case 1:
			m.Kind = UpdName
		case 2:
			m.Kind = AddAnn
		default:
			m.Kind, m.GID = Insert, int32(CuratorBase+i/4)
		}
		muts[i] = m
	}
	return muts
}

// GeneModel is the oracle for a Gene table: the state the engine must hold
// after the mutations applied so far.
type GeneModel struct {
	G Genes
	// score and nameLen are indexed by GID for loaded rows; rows inserted
	// above the loaded range live in extra.
	score   []int32
	nameLen []uint8
	extra   map[int32]GeneRow
	seqSeen map[int32]struct{}

	Rows     int   // live rows
	SumScore int64 // SUM(Score) over live rows
	Anns     int   // annotations on Gene, every annotation table
	Outdated int   // cells marked outdated by the Seq -> Score rule, when one is registered
	Pending  int   // operations logged for content approval, when it is on
	Live     int64 // user bytes of live rows
	Written  int64 // user bytes of every row image written (insert or update)
	// AnnOnSeq[gid] counts annotations covering the Seq cell of a loaded row.
	AnnOnSeq []uint8
}

// NewGeneModel returns the model of a table loaded with rows 0..baseRows-1.
func NewGeneModel(g Genes, baseRows int) *GeneModel {
	m := &GeneModel{G: g, score: make([]int32, baseRows), nameLen: make([]uint8, baseRows),
		extra: make(map[int32]GeneRow), seqSeen: make(map[int32]struct{}), AnnOnSeq: make([]uint8, baseRows)}
	for gid := 0; gid < baseRows; gid++ {
		row := g.Row(gid)
		m.score[gid] = int32(row.Score)
		m.nameLen[gid] = uint8(len(row.Name))
		m.SumScore += int64(row.Score)
		m.Live += row.UserBytes()
	}
	m.Rows = baseRows
	m.Written = m.Live
	return m
}

// BaseRows returns the loaded row count.
func (m *GeneModel) BaseRows() int { return len(m.score) }

// Score returns the current score of a loaded row.
func (m *GeneModel) Score(gid int) int { return int(m.score[gid]) }

func (m *GeneModel) rowBytes(gid int32) int64 {
	return int64(8 + int(m.nameLen[gid]) + 4 + 8 + SeqLen)
}

// Apply advances the model by one mutation. DependencyRule and Approval say
// whether the workload registered the Seq -> Score rule and content approval
// on Name; without them the corresponding counters stay zero.
func (m *GeneModel) Apply(mu Mut, dependencyRule, approval bool) {
	gid, ver := mu.GID, int(mu.Ver)
	switch mu.Kind {
	case UpdScore:
		s := int32(m.G.Score(int(gid), ver))
		m.SumScore += int64(s - m.score[gid])
		m.score[gid] = s
		m.Written += m.rowBytes(gid)
	case UpdSeq:
		m.Written += m.rowBytes(gid)
		if _, seen := m.seqSeen[gid]; dependencyRule && !seen {
			m.seqSeen[gid] = struct{}{}
			m.Outdated++
		}
	case UpdName:
		old := m.rowBytes(gid)
		m.nameLen[gid] = uint8(len(m.G.Name(int(gid), ver)))
		m.Live += m.rowBytes(gid) - old
		m.Written += m.rowBytes(gid)
		if approval {
			m.Pending++
		}
	case Insert:
		row := m.G.RowAt(int(gid), ver)
		m.extra[gid] = row
		m.Rows++
		m.SumScore += int64(row.Score)
		m.Live += row.UserBytes()
		m.Written += row.UserBytes()
		if approval {
			m.Pending++
		}
		if dependencyRule { // an insert writes Seq, so the cascade marks the new row's Score
			m.Outdated++
		}
	case Delete:
		row := m.extra[gid]
		delete(m.extra, gid)
		m.Rows--
		m.SumScore -= int64(row.Score)
		m.Live -= row.UserBytes()
		if approval {
			m.Pending++
		}
	case AddAnn:
		m.Anns++
		for r := gid; r < gid+AnnRegionRows; r++ {
			m.AnnOnSeq[r]++
		}
	}
}

// ApplyInsert advances the model by the insert of a row whose content the
// caller generated.
func (m *GeneModel) ApplyInsert(row GeneRow) {
	m.Rows++
	m.SumScore += int64(row.Score)
	m.Live += row.UserBytes()
	m.Written += row.UserBytes()
}

// LoadAnnotations records the set-up annotations: count regions of
// AnnRegionRows rows at an even stride over the loaded rows, per table.
func (m *GeneModel) LoadAnnotations(count int) {
	for _, lo := range AnnStarts(m.BaseRows(), count) {
		m.Apply(Mut{Kind: AddAnn, GID: int32(lo)}, false, false)
	}
}

// AnnStarts returns the first GID of each set-up annotation region.
func AnnStarts(baseRows, count int) []int {
	stride := baseRows / count
	starts := make([]int, count)
	for a := range starts {
		starts[a] = a * stride
	}
	return starts
}

// ZipfKeys returns count keys in [0, n) drawn from a zipfian distribution
// (s = 1.1, v = 50) whose ranks are scattered over the key space, so hot keys
// do not share pages. The offset v flattens the head: the hottest key draws
// about 1 % of the reads, not 10 %, so a run's speed does not hinge on what
// one seed's tail happened to do to one row.
func ZipfKeys(seed int64, n, count int) []int32 {
	r := rand.New(rand.NewSource(seed ^ 0x21bf))
	z := rand.NewZipf(r, 1.1, 50, uint64(n-1))
	keys := make([]int32, count)
	for i := range keys {
		keys[i] = int32(z.Uint64() * 2654435761 % uint64(n))
	}
	return keys
}

// UniformKeys returns count keys uniform in [0, n).
func UniformKeys(seed int64, n, count int) []int32 {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := make([]int32, count)
	for i := range keys {
		keys[i] = int32(r.Intn(n))
	}
	return keys
}

// Schedule returns count due times, in nanoseconds from the window start, of
// an open-loop generator at the given rate. The gaps are equal and the seed
// sets only the phase of the first write: with random gaps the number of
// writes a window saw, and how they bunched, differed from seed to seed, and
// every metric of the workload beside them moved with it.
func Schedule(seed int64, perSecond float64, count int) []int64 {
	gap := 1e9 / perSecond
	phase := rand.New(rand.NewSource(seed^0x5c4ed)).Float64() * gap
	due := make([]int64, count)
	for i := range due {
		due[i] = int64(phase + float64(i)*gap)
	}
	return due
}

// Groups is the number of distinct Events.Grp values.
const Groups = 997

// Analytics is the generator and oracle of the analytics workload: Events
// (ID, Grp, Score) and the star schema Fact (FID, D1, D2, V) x Dim1 (D1ID,
// Cat, Name) x Dim2 (D2ID, Tag), the shapes of the repository's E10 and E11
// experiments.
type Analytics struct {
	seed      uint64
	EventRows int
	FactRows  int
	// Score is the model of Events.Score, indexed by ID.
	Score []int64
	// HotD2 is the one Dim2 key tagged 'hot'.
	HotD2 int
}

// Dim1Rows and Dim2Rows size the dimensions; ten Dim1 rows share each Cat.
const (
	Dim1Rows = 1000
	Dim2Rows = 100
	Cats     = 100
)

// ScoreMod bounds Events.Score.
const ScoreMod = 100003

// NewAnalytics returns the generator of a seed at the given sizes.
func NewAnalytics(seed int64, eventRows, factRows int) *Analytics {
	a := &Analytics{seed: uint64(seed), EventRows: eventRows, FactRows: factRows,
		HotD2: int(mix(uint64(seed), 77, 0) % Dim2Rows)}
	a.Score = make([]int64, eventRows)
	for i := range a.Score {
		a.Score[i] = a.EventScore(i, 0)
	}
	return a
}

// EventScore returns the Score version ver of event id.
func (a *Analytics) EventScore(id, ver int) int64 {
	return int64(mix(a.seed, uint64(id), uint64(ver)*2+11) % ScoreMod)
}

// Grp returns the group of event id.
func Grp(id int) string { return "g" + pad(id%Groups, 3) }

// FactV, FactD1 and FactD2 give fact row i's cells.
func (a *Analytics) FactV(i int) int64 { return int64(mix(a.seed, uint64(i), 21) % 7919) }
func FactD1(i int) string              { return "A" + pad(i%Cats, 3) }
func FactD2(i int) string              { return "B" + pad(i%Dim2Rows, 3) }

// Update applies UPDATE Events SET Score = EventScore(id, ver) to the model.
func (a *Analytics) Update(id, ver int) { a.Score[id] = a.EventScore(id, ver) }

// Append applies INSERT of the next event id to the model and returns it.
func (a *Analytics) Append(ver int) int {
	id := len(a.Score)
	a.Score = append(a.Score, a.EventScore(id, ver))
	return id
}

// Agg is the expected output of an aggregate: row count and SUM.
type Agg struct {
	Count int64
	Sum   int64
}

// Q1 is the oracle of SELECT COUNT(*), SUM(Score) FROM Events WHERE Score < limit.
func (a *Analytics) Q1(limit int64) Agg {
	var g Agg
	for _, s := range a.Score {
		if s < limit {
			g.Count++
			g.Sum += s
		}
	}
	return g
}

// Q2 is the oracle of SELECT Grp, COUNT(*), SUM(Score) FROM Events GROUP BY
// Grp, keyed by group name.
func (a *Analytics) Q2() map[string]Agg {
	groups := make(map[string]Agg, Groups)
	names := make([]string, Groups)
	for i := range names {
		names[i] = Grp(i)
	}
	for id, s := range a.Score {
		g := groups[names[id%Groups]]
		g.Count++
		g.Sum += s
		groups[names[id%Groups]] = g
	}
	return groups
}

// Q3 is the oracle of the star join: every fact row pointing at the hot Dim2
// key joins the ten Dim1 rows of its category.
func (a *Analytics) Q3() Agg {
	var g Agg
	for i := 0; i < a.FactRows; i++ {
		if i%Dim2Rows == a.HotD2 {
			g.Count += Dim1Rows / Cats
			g.Sum += a.FactV(i) * (Dim1Rows / Cats)
		}
	}
	return g
}

// Q4 is the oracle of ORDER BY Score DESC LIMIT k: the k highest scores,
// descending (IDs are not compared, ties may order either way).
func (a *Analytics) Q4(k int) []int64 {
	top := append([]int64(nil), a.Score...)
	sort.Slice(top, func(i, j int) bool { return top[i] > top[j] })
	return top[:k]
}
